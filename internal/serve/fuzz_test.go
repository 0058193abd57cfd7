package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzServer starts a two-cell server for a fuzz target and returns a helper
// that posts one body to a route through the handler, returning the status.
func fuzzServer(f *testing.F) func(route, body string) int {
	s, err := New(Config{Shards: 1}, newCellPool(f, 2, 820))
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { shutdownNow(f, s) })
	h := s.Handler()
	return func(route, body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+route, strings.NewReader(body)))
		return rec.Code
	}
}

// FuzzHandleObserve posts arbitrary observe bodies after a decide on cell 0.
// No body may take the daemon down (a panic in a shard worker exits the
// process) or answer anything but 200/400/409/413, and cell 0 must still be
// served afterwards.
func FuzzHandleObserve(f *testing.F) {
	for _, body := range []string{
		`{"cell":0,"delays":{"999":5}}`,
		`{"cell":0,"delays":{"-1":5}}`,
		`{"cell":0,"delays":{"0":5,"1":-3}}`,
		`{"cell":0,"delays":{"0":1e308,"1":-1e308}}`,
		`{"cell":0,"delays":{"0":1e308,"1":1e308}}`,
		`{"cell":0,"delays":{"x":5}}`,
		`{"cell":1}`,
		`{"cell":0,"volumes":[0]}`,
		`{"cell":0,"volumes":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`,
		`{"cell":-1}`,
		`{bad`,
	} {
		f.Add(body)
	}
	post := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		if code := post("decide", `{"cell":0}`); code != http.StatusOK {
			t.Fatalf("decide before the fuzzed observe: %d", code)
		}
		switch code := post("observe", body); code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("observe %q: status %d", body, code)
		}
	})
}

// FuzzHandleDecide posts arbitrary decide bodies. No body may take the daemon
// down, and cell 0 must still be served afterwards.
func FuzzHandleDecide(f *testing.F) {
	for _, body := range []string{
		`{"cell":0}`,
		`{"cell":1,"volumes":[-1]}`,
		`{"cell":99}`,
		`{"cell":0,"delays":{"999":5}}`,
		`{"cell":0,"volumes":[1e308,1,1,1,1,1,1,1]}`,
		`{"cell":0,"volumes":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`,
		`{bad`,
	} {
		f.Add(body)
	}
	post := fuzzServer(f)
	f.Fuzz(func(t *testing.T, body string) {
		post("decide", body)
		if code := post("decide", `{"cell":0}`); code != http.StatusOK {
			t.Fatalf("decide after %q: status %d", body, code)
		}
	})
}
