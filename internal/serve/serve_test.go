package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/sim"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// newCellPool builds n independent cells over small per-cell scenarios with
// deterministic seeds (cell i uses seedBase+i throughout), mirroring how
// cmd/mecd provisions its pool.
func newCellPool(t testing.TB, n int, seedBase int64) []*sim.Cell {
	t.Helper()
	cells := make([]*sim.Cell, n)
	for i := 0; i < n; i++ {
		net, err := topology.GTITM(12, seedBase+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		cfg := workload.DefaultConfig()
		cfg.NumRequests = 8
		cfg.Horizon = 16
		w, err := workload.Generate(net, cfg, seedBase+int64(i))
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewRunner(net, w, sim.Config{Seed: seedBase + int64(i), DemandsGiven: true})
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
		cells[i] = cell
	}
	return cells
}

func shutdownNow(t testing.TB, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := New(Config{}, nil); err == nil {
		t.Error("empty pool accepted")
	}
	if _, err := New(Config{}, []*sim.Cell{nil}); err == nil {
		t.Error("nil cell accepted")
	}
}

func TestShardAssignmentAndDefaults(t *testing.T) {
	cells := newCellPool(t, 5, 100)
	s, err := New(Config{Shards: 64}, cells) // more shards than cells → clamped
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if s.NumShards() != 5 {
		t.Fatalf("shards = %d, want clamped to 5 cells", s.NumShards())
	}
	for _, info := range s.Cells() {
		if info.Shard != info.Cell%s.NumShards() {
			t.Errorf("cell %d on shard %d, want %d", info.Cell, info.Shard, info.Cell%s.NumShards())
		}
	}
}

// TestPerCellDeterminismUnderConcurrency is the core serving-layer contract:
// a cell's decision sequence depends only on its OWN request sequence, never
// on how requests to other cells interleave in the shard queues. Drive one
// pool sequentially and an identically-seeded pool from concurrent goroutines
// (with backpressure retries), and require bit-identical per-cell delays.
func TestPerCellDeterminismUnderConcurrency(t *testing.T) {
	const (
		nCells = 6
		slots  = 8
		seed   = int64(40)
	)

	drive := func(s *Server, cell int) []float64 {
		delays := make([]float64, 0, slots)
		for k := 0; k < slots; k++ {
			for {
				dec, err := s.Decide(cell, nil)
				if err == nil {
					delays = append(delays, dec.DelayMS)
					break
				}
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(100 * time.Microsecond)
					continue
				}
				t.Errorf("cell %d slot %d: %v", cell, k, err)
				return delays
			}
			// Explicitly observe every other slot; the rest auto-observe on
			// the next Decide. Both paths must land in the same state.
			if k%2 == 1 {
				for {
					err := s.Observe(cell, nil, nil)
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(100 * time.Microsecond)
						continue
					}
					t.Errorf("cell %d observe %d: %v", cell, k, err)
					return delays
				}
			}
		}
		return delays
	}

	// Reference: one goroutine, cells driven round-robin but strictly in order.
	ref, err := New(Config{Shards: 1}, newCellPool(t, nCells, seed))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, nCells)
	for c := 0; c < nCells; c++ {
		want[c] = drive(ref, c)
	}
	shutdownNow(t, ref)

	// Hammer: identical pool, one goroutine per cell, tiny queues so retries
	// and batching actually happen, shards shared between cells.
	hot, err := New(Config{Shards: 3, QueueDepth: 2, BatchMax: 4}, newCellPool(t, nCells, seed))
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]float64, nCells)
	var wg sync.WaitGroup
	for c := 0; c < nCells; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = drive(hot, c)
		}(c)
	}
	wg.Wait()
	shutdownNow(t, hot)

	for c := 0; c < nCells; c++ {
		if len(got[c]) != len(want[c]) {
			t.Fatalf("cell %d: %d delays vs %d in reference", c, len(got[c]), len(want[c]))
		}
		for k := range want[c] {
			if got[c][k] != want[c][k] {
				t.Errorf("cell %d slot %d: delay %v under concurrency, %v sequentially",
					c, k, got[c][k], want[c][k])
			}
		}
	}
}

// TestBackpressureRejectsRatherThanBlocks pins the shard worker on a task
// whose result channel is unbuffered (the worker stalls on the result send
// until the test receives), fills the 1-deep queue, and requires the next
// submit to be REJECTED immediately — the defining backpressure property —
// then floods the released server and requires every call to return promptly.
func TestBackpressureRejectsRatherThanBlocks(t *testing.T) {
	cells := newCellPool(t, 4, 200)
	s, err := New(Config{Shards: 1, QueueDepth: 1, BatchMax: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	sh := s.shards[0]

	// Stall the worker: it executes this decide, then blocks handing back the
	// result because nobody is receiving yet.
	blocker := task{kind: taskDecide, cell: s.cells[0], done: make(chan taskResult),
		rc: s.newReqCtx("decide"), enq: time.Now()}
	sh.queue <- blocker
	for len(sh.queue) > 0 { // wait until the worker has claimed it
		time.Sleep(100 * time.Microsecond)
	}

	// Fill the queue behind the stalled worker, then overflow it.
	filler := task{kind: taskDecide, cell: s.cells[1], done: make(chan taskResult, 1), rc: s.newReqCtx("decide")}
	if err := s.submit(filler); err != nil {
		t.Fatalf("filler rejected with an idle queue: %v", err)
	}
	start := time.Now()
	if _, err := s.Decide(2, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("rejection took %v: must be immediate, not queued", d)
	}
	if got := s.Cells()[2].Rejected; got != 1 {
		t.Errorf("cell 2 rejected counter = %d, want 1", got)
	}

	// Release the worker and drain the held tasks.
	if res := <-blocker.done; res.err != nil {
		t.Fatalf("blocker decide: %v", res.err)
	}
	if res := <-filler.done; res.err != nil {
		t.Fatalf("filler decide: %v", res.err)
	}

	// Flood: every call must return (success or rejection), never block.
	const flood = 64
	var wg sync.WaitGroup
	errs := make([]error, flood)
	floodDone := make(chan struct{})
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Decide(i%len(cells), nil)
		}(i)
	}
	go func() { wg.Wait(); close(floodDone) }()
	select {
	case <-floodDone:
	case <-time.After(30 * time.Second):
		t.Fatal("flood blocked: backpressure must reject, not stall")
	}
	var ok, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("unexpected error under flood: %v", err)
		}
	}
	if ok+rejected != flood {
		t.Fatalf("accounted %d+%d of %d requests", ok, rejected, flood)
	}
	if ok == 0 {
		t.Error("every request rejected; queue admitted nothing")
	}
}

func TestObserveWithoutPendingDecision(t *testing.T) {
	s, err := New(Config{}, newCellPool(t, 1, 300))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if err := s.Observe(0, nil, nil); !errors.Is(err, sim.ErrNoPendingObserve) {
		t.Fatalf("observe with nothing pending: %v, want ErrNoPendingObserve", err)
	}
	if _, err := s.Decide(99, nil); !isLookupErr(err) {
		t.Fatalf("unknown cell: %v, want lookup error", err)
	}
}

func TestShutdownDrainsAndRejectsLateWork(t *testing.T) {
	s, err := New(Config{Shards: 1}, newCellPool(t, 2, 400))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Decide(0, nil); err != nil {
		t.Fatal(err)
	}
	shutdownNow(t, s)
	if _, err := s.Decide(0, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("decide after shutdown: %v, want ErrDraining", err)
	}
	// Second shutdown is a no-op, not a double-close panic.
	shutdownNow(t, s)
}

func TestHTTPAPI(t *testing.T) {
	s, err := New(Config{Shards: 1}, newCellPool(t, 2, 500))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path, body string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp, buf.Bytes()
	}

	resp, body := post("/v1/decide", `{"cell":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d %s", resp.StatusCode, body)
	}
	var dec struct {
		Cell     int     `json:"cell"`
		Slot     int     `json:"slot"`
		DelayMS  float64 `json:"delay_ms"`
		Stations []int   `json:"stations"`
		Requests []int   `json:"requests"`
	}
	if err := json.Unmarshal(body, &dec); err != nil {
		t.Fatalf("decide body %s: %v", body, err)
	}
	if dec.Cell != 1 || dec.Slot != 0 || len(dec.Stations) != len(dec.Requests) || len(dec.Stations) == 0 {
		t.Fatalf("decide payload off: %+v", dec)
	}

	// Client-owned feedback: per-station delays keyed by the assignment.
	delays := map[string]float64{}
	for _, st := range dec.Stations {
		delays[fmt.Sprint(st)] = 10
	}
	js, _ := json.Marshal(delays)
	if resp, body = post("/v1/observe", fmt.Sprintf(`{"cell":1,"delays":%s}`, js)); resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	if resp, _ = post("/v1/observe", `{"cell":1}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("double observe: %d, want 409", resp.StatusCode)
	}
	if resp, _ = post("/v1/decide", `{"cell":7}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown cell: %d, want 400", resp.StatusCode)
	}
	if resp, _ = post("/v1/decide", `{"cell":0,"volumes":[-1]}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad volumes: %d, want 400", resp.StatusCode)
	}
	if resp, _ = post("/v1/decide", `{bad json`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: %d, want 400", resp.StatusCode)
	}

	cresp, err := http.Get(ts.URL + "/v1/cells")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var status struct {
		Shards int        `json:"shards"`
		Cells  []CellInfo `json:"cells"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status.Shards != 1 || len(status.Cells) != 2 {
		t.Fatalf("cells payload off: %+v", status)
	}
	if status.Cells[1].Decides != 1 || status.Cells[1].Observes != 1 {
		t.Fatalf("cell 1 counters %+v, want 1 decide / 1 observe", status.Cells[1])
	}

	if resp, err := http.Get(ts.URL + "/v1/decide"); err != nil || resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET decide: %v %d, want 405", err, resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %d", err, resp.StatusCode)
	}
}

// TestBatchingCoalesces verifies the worker drains multiple queued tasks per
// tick when requests pile up faster than solves complete.
func TestBatchingCoalesces(t *testing.T) {
	cells := newCellPool(t, 4, 600)
	s, err := New(Config{Shards: 1, QueueDepth: 64, BatchMax: 8}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	var wg sync.WaitGroup
	for round := 0; round < 4; round++ {
		for c := 0; c < len(cells); c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					if _, err := s.Decide(c, nil); !errors.Is(err, ErrQueueFull) {
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}(c)
		}
		wg.Wait()
	}
	for _, info := range s.Cells() {
		if info.Decides != 4 {
			t.Errorf("cell %d decided %d slots, want 4", info.Cell, info.Decides)
		}
	}
}
