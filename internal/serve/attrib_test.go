package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/mecsim/l4e/internal/obs"
)

// postJSON posts a request body and returns the response (callers close it).
func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestLatencyAttributionHistograms(t *testing.T) {
	o := obs.New(obs.Options{})
	cells := newCellPool(t, 2, 700)
	s, err := New(Config{Shards: 2, Observer: o}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	for i := 0; i < 4; i++ {
		for c := 0; c < 2; c++ {
			if _, err := s.Decide(c, nil); err != nil {
				t.Fatalf("decide cell %d: %v", c, err)
			}
			if err := s.Observe(c, nil, nil); err != nil {
				t.Fatalf("observe cell %d: %v", c, err)
			}
		}
	}

	snap := o.Snapshot()
	for _, key := range []string{
		`serve.e2e_ms{route="decide"}`,
		`serve.e2e_ms{route="observe"}`,
		`serve.queue_wait_ms{shard="s0"}`,
		`serve.queue_wait_ms{shard="s1"}`,
		`serve.batch_wait_ms`,
		`serve.solve_ms{mode="cold",tier="simplex"}`,
		`serve.solve_ms{mode="observe",tier="observe"}`,
		`serve.reply_ms`,
	} {
		h, ok := snap.Histograms[key]
		if !ok {
			t.Errorf("missing histogram %s (have %v)", key, histKeys(snap))
			continue
		}
		if h.Count == 0 {
			t.Errorf("%s recorded no samples", key)
		}
	}
	if h := snap.Histograms[`serve.e2e_ms{route="decide"}`]; h.Count != 8 {
		t.Errorf("decide e2e count = %d, want 8", h.Count)
	}
}

func histKeys(s obs.Snapshot) []string {
	keys := make([]string, 0, len(s.Histograms))
	for k := range s.Histograms {
		keys = append(keys, k)
	}
	return keys
}

// TestSpanTreeCoverage drives the HTTP path with tracing attached and checks
// the recorded span trees: every request yields one root "req" span whose
// children (queue_wait, batch_wait, solve, encode) share its trace ID, and in
// aggregate the child durations attribute at least 90% of the recorded
// end-to-end time (the rest is inter-stage channel/scheduler overhead).
func TestSpanTreeCoverage(t *testing.T) {
	var buf bytes.Buffer
	o := obs.New(obs.Options{TraceWriter: &buf})
	cells := newCellPool(t, 2, 720)
	s, err := New(Config{Shards: 2, Observer: o}, cells)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	const reqs = 10
	for i := 0; i < reqs; i++ {
		resp := postJSON(t, ts.URL+"/v1/decide", fmt.Sprintf(`{"cell":%d}`, i%2))
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: status %d", i, resp.StatusCode)
		}
		resp = postJSON(t, ts.URL+"/v1/observe", fmt.Sprintf(`{"cell":%d}`, i%2))
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe %d: status %d", i, resp.StatusCode)
		}
	}
	ts.Close()
	shutdownNow(t, s)
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}

	events, err := obs.DecodeEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	type tree struct {
		e2e      float64
		children map[string]float64
	}
	trees := map[string]*tree{}
	for _, ev := range events {
		if ev.Name != "span" || ev.Trace == "" {
			continue
		}
		tr := trees[ev.Trace]
		if tr == nil {
			tr = &tree{children: map[string]float64{}}
			trees[ev.Trace] = tr
		}
		dur, ok := ev.Fields["dur_ms"].(float64)
		if !ok {
			t.Fatalf("span without dur_ms: %+v", ev)
		}
		if ev.Span == "req" {
			if ev.Parent != "" {
				t.Errorf("root span has parent %q", ev.Parent)
			}
			tr.e2e = dur
			continue
		}
		if ev.Parent != "req" {
			t.Errorf("child span %q parent = %q, want req", ev.Span, ev.Parent)
		}
		tr.children[ev.Span] += dur
	}
	if len(trees) != 2*reqs {
		t.Fatalf("recorded %d traces, want %d", len(trees), 2*reqs)
	}
	var e2eTotal, stageTotal float64
	for id, tr := range trees {
		if tr.e2e <= 0 {
			t.Fatalf("trace %s has no root span", id)
		}
		for _, st := range []string{"queue_wait", "batch_wait", "solve", "reply", "encode"} {
			if _, ok := tr.children[st]; !ok {
				t.Errorf("trace %s missing stage %s (have %v)", id, st, tr.children)
			}
		}
		var sum float64
		for _, d := range tr.children {
			sum += d
		}
		e2eTotal += tr.e2e
		stageTotal += sum
	}
	if stageTotal > e2eTotal {
		t.Errorf("stages (%.4fms) exceed end-to-end (%.4fms)", stageTotal, e2eTotal)
	}
	if cov := stageTotal / e2eTotal; cov < 0.9 {
		t.Errorf("stages attribute %.1f%% of e2e, want >= 90%%", 100*cov)
	}
}

func TestRetryAfterGrounded(t *testing.T) {
	slo := obs.NewSLOTracker(obs.SLOConfig{})
	cells := newCellPool(t, 2, 740)
	s, err := New(Config{Shards: 2, RetryAfter: 2 * time.Second, SLO: slo}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)

	// Before any observed wait: the configured constant.
	if got := s.retryAfterSecs(0); got != 2 {
		t.Errorf("no-data hint = %d, want configured 2", got)
	}
	// Out-of-range shard: still the constant, never a panic.
	if got := s.retryAfterSecs(-1); got != 2 {
		t.Errorf("bad-shard hint = %d, want 2", got)
	}

	// Grounded: the hint follows the shard's observed queue-wait EWMA.
	s.shards[0].waitEWMA.Store(int64(2500 * time.Millisecond))
	if got := s.retryAfterSecs(0); got != 3 {
		t.Errorf("hint = %d, want ceil(2.5s) = 3", got)
	}
	s.shards[0].waitEWMA.Store(int64(10 * time.Millisecond))
	if got := s.retryAfterSecs(0); got != 1 {
		t.Errorf("hint = %d, want sub-second waits clamped up to 1", got)
	}
	s.shards[0].waitEWMA.Store(int64(5 * time.Minute))
	if got := s.retryAfterSecs(0); got != 60 {
		t.Errorf("hint = %d, want clamped to 60", got)
	}

	// The HTTP 429 carries the grounded hint for the rejected cell's shard.
	s.shards[0].waitEWMA.Store(int64(4 * time.Second))
	rec := httptest.NewRecorder()
	s.writeErr(rec, ErrQueueFull, 0) // cell 0 → shard 0
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "4" {
		t.Errorf("Retry-After = %q, want 4 (shard 0's EWMA)", got)
	}

	// EWMA convergence: repeated waits move the estimate toward the sample.
	sh := &shard{}
	for i := 0; i < 100; i++ {
		sh.noteWait(800 * time.Millisecond)
	}
	if got := time.Duration(sh.waitEWMA.Load()); got < 700*time.Millisecond || got > 900*time.Millisecond {
		t.Errorf("EWMA after repeated 800ms waits = %v", got)
	}
}

func TestRetryAfterEWMAFedByServing(t *testing.T) {
	// Served requests populate the drain estimate even on a bare server (no
	// observer, no SLO tracker), which is how mecd runs by default.
	cells := newCellPool(t, 1, 760)
	s, err := New(Config{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	for i := 0; i < 3; i++ {
		if _, err := s.Decide(0, nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.shards[0].waitEWMA.Load() <= 0 {
		t.Error("serving requests did not feed the shard's queue-wait EWMA")
	}
}

func TestSLOAndHealthzEndpoints(t *testing.T) {
	slo := obs.NewSLOTracker(obs.SLOConfig{LatencyObjectiveMS: 1000})
	cells := newCellPool(t, 1, 780)
	s, err := New(Config{SLO: slo}, cells)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Decide(0, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz = %d %q, want 200 ok", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/slo")
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.SLOReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.State != obs.SLOStateOK {
		t.Errorf("/slo state = %q, want ok", rep.State)
	}
	if len(rep.Windows) == 0 || rep.Windows[0].Total == 0 {
		t.Errorf("/slo windows = %+v, want the decide recorded", rep.Windows)
	}

	// Burn the error budget: /healthz flips to 503 overloaded.
	for i := 0; i < 50; i++ {
		slo.Record(0.1, true, false)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || strings.TrimSpace(string(body)) != "overloaded" {
		t.Errorf("/healthz under burn = %d %q, want 503 overloaded", resp.StatusCode, body)
	}

	// Draining wins over SLO state.
	shutdownNow(t, s)
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable || strings.TrimSpace(rec.Body.String()) != "draining" {
		t.Errorf("/healthz draining = %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
}

func TestSLOEndpointWithoutTracker(t *testing.T) {
	cells := newCellPool(t, 1, 800)
	s, err := New(Config{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	rec := httptest.NewRecorder()
	s.handleSLO(rec, httptest.NewRequest(http.MethodGet, "/slo", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("/slo without tracker = %d, want 404", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Errorf("/healthz without tracker = %d %q, want plain 200 ok", rec.Code, rec.Body.String())
	}
}

// TestEndpointsUnderConcurrentScrapeAndShutdown hammers the observability
// endpoints while the server drains: no panics, no wedged scrapers, and the
// probes stay coherent (every /healthz answer is a known state; draining
// answers are 503).
func TestEndpointsUnderConcurrentScrapeAndShutdown(t *testing.T) {
	o := obs.New(obs.Options{})
	slo := obs.NewSLOTracker(obs.SLOConfig{})
	cells := newCellPool(t, 4, 820)
	s, err := New(Config{Shards: 2, Observer: o, SLO: slo}, cells)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for c := 0; c < 4; c++ {
		if _, err := s.Decide(c, nil); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	bad := make(chan string, 64)
	scrape := func(path string, okStates map[string]bool) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				continue // server may be mid-close; the transport error is fine
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if okStates != nil {
				state := strings.TrimSpace(string(body))
				if !okStates[state] {
					select {
					case bad <- fmt.Sprintf("%s: unexpected state %q", path, state):
					default:
					}
				}
				if state == "draining" && resp.StatusCode != http.StatusServiceUnavailable {
					select {
					case bad <- fmt.Sprintf("%s: draining with status %d", path, resp.StatusCode):
					default:
					}
				}
			}
		}
	}
	wg.Add(3)
	go scrape("/healthz", map[string]bool{"ok": true, "degraded": true, "overloaded": true, "draining": true})
	go scrape("/slo", nil)
	go scrape("/v1/cells", nil)

	time.Sleep(20 * time.Millisecond)
	shutdownNow(t, s)
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(bad)
	for msg := range bad {
		t.Error(msg)
	}

	// After the drain, the handler must report draining deterministically.
	rec := httptest.NewRecorder()
	s.handleHealthz(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-drain /healthz = %d, want 503", rec.Code)
	}
}

// TestAttributionDisabledBitIdentical replays the same request sequence on an
// instrumented server (observer + tracer + SLO) and a bare one over
// identically seeded pools: the decisions must match byte for byte, so the
// attribution layer provably cannot perturb serving results.
func TestAttributionDisabledBitIdentical(t *testing.T) {
	runSeq := func(s *Server) []string {
		var out []string
		for i := 0; i < 6; i++ {
			for c := 0; c < 2; c++ {
				dec, err := s.Decide(c, nil)
				if err != nil {
					t.Fatalf("decide: %v", err)
				}
				dec.DecideMS = 0 // wall-clock measurement: nondeterministic by nature
				raw, err := json.Marshal(dec)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, string(raw))
				if err := s.Observe(c, nil, nil); err != nil {
					t.Fatalf("observe: %v", err)
				}
			}
		}
		return out
	}

	bare, err := New(Config{Shards: 2}, newCellPool(t, 2, 840))
	if err != nil {
		t.Fatal(err)
	}
	plain := runSeq(bare)
	shutdownNow(t, bare)

	var buf bytes.Buffer
	o := obs.New(obs.Options{TraceWriter: &buf})
	instr, err := New(Config{Shards: 2, Observer: o, SLO: obs.NewSLOTracker(obs.SLOConfig{})}, newCellPool(t, 2, 840))
	if err != nil {
		t.Fatal(err)
	}
	traced := runSeq(instr)
	shutdownNow(t, instr)

	if len(plain) != len(traced) {
		t.Fatalf("sequence lengths differ: %d vs %d", len(plain), len(traced))
	}
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("decision %d differs with attribution on:\nbare:   %s\ntraced: %s", i, plain[i], traced[i])
		}
	}
	if err := o.Flush(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("instrumented run recorded no spans")
	}
}
