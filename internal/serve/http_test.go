package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/sim"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// newChaosCell builds one cell like newCellPool's, with the given fault
// spec applied every slot.
func newChaosCell(t *testing.T, spec string, seed int64) *sim.Cell {
	t.Helper()
	net, err := topology.GTITM(12, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 8
	cfg.Horizon = 16
	w, err := workload.Generate(net, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse(spec, net, seed+4000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(net, w, sim.Config{Seed: seed, DemandsGiven: true, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := algorithms.NewOLGD(algorithms.DefaultOLGDConfig(net.NumStations()))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := r.NewCell(pol)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDecideNeverAnswersEmpty200 drives /v1/decide through Handler() on a
// cell whose feedback injector corrupts every played delay to NaN
// (feedback:0:1). NaN cannot be JSON-encoded, so those decides must answer
// 500 with the encoder's error, counted as serve.encode_errors — never a 200
// with an empty or unparsable body.
func TestDecideNeverAnswersEmpty200(t *testing.T) {
	o := obs.New(obs.Options{})
	s, err := New(Config{Shards: 1, Observer: o}, []*sim.Cell{newChaosCell(t, "feedback:0:1", 760)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	failed := 0
	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
		body := readBody(t, resp)
		switch resp.StatusCode {
		case http.StatusOK:
			var dec map[string]any
			if err := json.Unmarshal([]byte(body), &dec); err != nil || len(dec) == 0 {
				t.Fatalf("decide %d: 200 with body %q (%v)", i, body, err)
			}
		case http.StatusInternalServerError:
			if !strings.Contains(body, "encode") {
				t.Fatalf("decide %d: 500 without the encoder's error: %q", i, body)
			}
			failed++
		default:
			t.Fatalf("decide %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if failed == 0 {
		t.Fatal("no decide carried a NaN delay; the check is vacuous")
	}
	if got := o.Snapshot().Counters["serve.encode_errors"]; got != int64(failed) {
		t.Errorf("serve.encode_errors = %d, want %d", got, failed)
	}
}

// TestOversizedBodyRejected posts decide and observe bodies past the 1 MiB
// cap: each must answer 413, and the cell must not advance.
func TestOversizedBodyRejected(t *testing.T) {
	s, err := New(Config{Shards: 1}, newCellPool(t, 1, 780))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	vols := strings.TrimSuffix(strings.Repeat("1.5,", maxBodyBytes/4+1), ",")
	for _, route := range []string{"decide", "observe"} {
		resp := postJSON(t, ts.URL+"/v1/"+route, fmt.Sprintf(`{"cell":0,"volumes":[%s]}`, vols))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got %d, want 413: %.200s", route, resp.StatusCode, body)
		}
	}
	if st := s.Cells()[0]; st.Slot != 0 || st.Decides != 0 || st.Observes != 0 {
		t.Fatalf("cell advanced on rejected bodies: %+v", st.CellStatus)
	}
	// A normal body still goes through.
	resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide after rejections: %d: %s", resp.StatusCode, body)
	}
	if st := s.Cells()[0]; st.Decides != 1 {
		t.Fatalf("decides after one decide = %d, want 1", st.Decides)
	}
}

// TestObserveRejectsUnknownStation posts feedback for stations outside the
// cell's network after a decide. Each must answer 400 without touching the
// cell (slot, counters and the pending decision stay as they were), and the
// shard worker must survive to serve the next decide.
func TestObserveRejectsUnknownStation(t *testing.T) {
	assertObservesRejected(t, `{"cell":0,"delays":{"999":5}}`, `{"cell":0,"delays":{"-1":5}}`)
}

// TestObserveRejectsHostileDelays posts feedback with non-positive or
// implausibly large delays. Accepted, a negative one steered every later
// decide onto the station with the hugely negative estimate, and 1e308 ms
// dropped every later decide to the greedy rung; each must be rejected like an
// unknown station.
func TestObserveRejectsHostileDelays(t *testing.T) {
	assertObservesRejected(t,
		`{"cell":0,"delays":{"0":1e308,"1":-1e308}}`,
		`{"cell":0,"delays":{"0":1e308,"1":1e308}}`,
		`{"cell":0,"delays":{"0":0}}`,
		`{"cell":0,"delays":{"2":-5}}`)
}

// assertObservesRejected decides once on a fresh one-cell server, then posts
// each observe body: every one must answer 400 and leave the cell's status
// as it was, and the next decide must still be served.
func assertObservesRejected(t *testing.T, bodies ...string) {
	t.Helper()
	s, err := New(Config{Shards: 1}, newCellPool(t, 1, 790))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}
	before := s.Cells()[0].CellStatus
	if !before.PendingObserve {
		t.Fatal("no decision pending after a decide")
	}
	for _, in := range bodies {
		resp := postJSON(t, ts.URL+"/v1/observe", in)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("observe %s: %d, want 400: %s", in, resp.StatusCode, body)
		}
		if after := s.Cells()[0].CellStatus; after != before {
			t.Fatalf("observe %s changed the cell: %+v, was %+v", in, after, before)
		}
	}
	resp = postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide after rejected observes: %d: %s", resp.StatusCode, body)
	}
	if st := s.Cells()[0]; st.Slot != 1 || st.Decides != 2 || st.Observes != 1 {
		t.Fatalf("after the second decide: %+v, want slot 1, 2 decides, 1 observe", st.CellStatus)
	}
}
