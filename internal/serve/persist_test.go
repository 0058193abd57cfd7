package serve

import (
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/sim"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// driveCell plays n Decide+Observe rounds against one cell and returns the
// realised per-slot delays.
func driveCell(t *testing.T, s *Server, cell, n int) []float64 {
	t.Helper()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		dec, err := s.Decide(cell, nil)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if err := s.Observe(cell, nil, nil); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		out = append(out, dec.DelayMS)
	}
	return out
}

// TestServerKillAndRestoreBitIdentical is the serving-layer durability
// guarantee: a daemon killed after K slots and restarted over the same
// state directory continues each cell bit-identically to a daemon that
// never died. "Killed" here means the server is abandoned without any
// graceful state flush — every byte it will recover from was made durable
// by the per-append WAL sync, exactly the crash contract.
func TestServerKillAndRestoreBitIdentical(t *testing.T) {
	const cellN = 2
	const kill, total = 9, 14
	const every = 4 // checkpoint cadence must match across runs: it is a warm-state barrier

	// Reference: uninterrupted run over its own state dir.
	refDir := t.TempDir()
	ref, err := New(Config{Shards: 1, StateDir: refDir, CheckpointEvery: every}, newCellPool(t, cellN, 300))
	if err != nil {
		t.Fatal(err)
	}
	<-ref.Recovered()
	refDelays := make([][]float64, cellN)
	for c := 0; c < cellN; c++ {
		refDelays[c] = driveCell(t, ref, c, total)
	}
	refStatus := ref.Cells()
	shutdownNow(t, ref)

	// Victim: same scenario, killed at slot `kill`.
	dir := t.TempDir()
	victim, err := New(Config{Shards: 1, StateDir: dir, CheckpointEvery: every}, newCellPool(t, cellN, 300))
	if err != nil {
		t.Fatal(err)
	}
	<-victim.Recovered()
	for c := 0; c < cellN; c++ {
		driveCell(t, victim, c, kill)
	}
	shutdownNow(t, victim) // flushes nothing the WAL hasn't already synced

	// Restart over the same directory with fresh cells.
	reborn, err := New(Config{Shards: 1, StateDir: dir, CheckpointEvery: every}, newCellPool(t, cellN, 300))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, reborn)
	<-reborn.Recovered()
	for c := 0; c < cellN; c++ {
		st := reborn.Cells()[c]
		if st.Slot != kill || st.Decides != kill {
			t.Fatalf("cell %d recovered to slot %d (%d decides), want %d", c, st.Slot, st.Decides, kill)
		}
		tail := driveCell(t, reborn, c, total-kill)
		for i, d := range tail {
			want := refDelays[c][kill+i]
			if math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("cell %d slot %d delay %v != uninterrupted %v", c, kill+i, d, want)
			}
		}
	}
	for c, st := range reborn.Cells() {
		if st.Slot != refStatus[c].Slot || st.Decides != refStatus[c].Decides ||
			st.Observes != refStatus[c].Observes || st.DegradedSlots != refStatus[c].DegradedSlots {
			t.Fatalf("cell %d final status %+v != reference %+v", c, st, refStatus[c])
		}
	}
}

// TestServerRecoveryCounters verifies the recovery path lands in the
// persist counters and that a fresh state dir is genesis.
func TestServerRecoveryCounters(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Options{})
	s, err := New(Config{Shards: 1, StateDir: dir, CheckpointEvery: 3, Observer: o}, newCellPool(t, 1, 420))
	if err != nil {
		t.Fatal(err)
	}
	<-s.Recovered()
	driveCell(t, s, 0, 7) // 7 decides at cadence 3 → 2 checkpoints, WAL tail of 1 decide + observes
	shutdownNow(t, s)
	snap := o.Snapshot()
	if got := counterValue(t, snap, "persist.checkpoints"); got != 2 {
		t.Fatalf("persist.checkpoints = %v, want 2", got)
	}
	if got := counterValue(t, snap, "persist.wal_records"); got != 14 {
		t.Fatalf("persist.wal_records = %v, want 14", got)
	}

	o2 := obs.New(obs.Options{})
	s2, err := New(Config{Shards: 1, StateDir: dir, CheckpointEvery: 3, Observer: o2}, newCellPool(t, 1, 420))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s2)
	<-s2.Recovered()
	if st := s2.Cells()[0]; st.Slot != 7 {
		t.Fatalf("recovered slot = %d, want 7", st.Slot)
	}
	snap2 := o2.Snapshot()
	if got := counterValue(t, snap2, "persist.recoveries"); got != 1 {
		t.Fatalf("persist.recoveries = %v, want 1", got)
	}
}

// counterValue sums a counter across label sets (labeled series carry the
// base name plus a "{...}" suffix).
func counterValue(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	var sum int64
	found := false
	for k, v := range snap.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
			found = true
		}
	}
	if !found {
		t.Fatalf("counter %q not in snapshot (have %v)", name, snap.Counters)
	}
	return sum
}

// TestHealthzRecoveringAndErrMapping exercises the recovering gate: a
// server frozen mid-recovery reports 503 "recovering" on /healthz and
// rejects traffic with ErrRecovering → 503 + Retry-After.
func TestHealthzRecoveringAndErrMapping(t *testing.T) {
	s, err := New(Config{Shards: 1}, newCellPool(t, 1, 510))
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	// Freeze the flag by hand: the recovery pass is long gone, the gate is
	// what's under test.
	s.recovering.Store(true)
	rr := httptest.NewRecorder()
	s.handleHealthz(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(rr.Body.String(), "recovering") {
		t.Fatalf("healthz while recovering = %d %q", rr.Code, rr.Body.String())
	}
	if _, err := s.Decide(0, nil); err != ErrRecovering {
		t.Fatalf("Decide while recovering = %v, want ErrRecovering", err)
	}
	rr = httptest.NewRecorder()
	s.writeErr(rr, ErrRecovering, 0)
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("writeErr(ErrRecovering) = %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
	}
	s.recovering.Store(false)
	if _, err := s.Decide(0, nil); err != nil {
		t.Fatalf("Decide after recovery: %v", err)
	}
	if err := s.Observe(0, nil, nil); err != nil {
		t.Fatalf("Observe after recovery: %v", err)
	}
}

// TestWorkerPanicRunsCleanupsThenDies runs a copy of this test binary as a
// child process whose shard worker panics mid-request, and asserts (a) the
// OnPanic cleanup hook ran — the flight-recorder flush path — and (b) the
// panic still crashed the process (non-zero exit), not swallowed.
func TestWorkerPanicRunsCleanupsThenDies(t *testing.T) {
	if os.Getenv("SERVE_PANIC_CHILD") == "1" {
		runPanicChild()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestWorkerPanicRunsCleanupsThenDies")
	cmd.Env = append(os.Environ(), "SERVE_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child survived a worker panic; output:\n%s", out)
	}
	if !strings.Contains(string(out), "CLEANUPS-RAN") {
		t.Fatalf("OnPanic cleanup did not run before the crash; output:\n%s", out)
	}
	if !strings.Contains(string(out), "panic") {
		t.Fatalf("panic not re-raised; output:\n%s", out)
	}
}

// runPanicChild is the child side: a worker is fed a poisoned task (nil
// done channel, so the result send panics — a stand-in for any bug inside
// the worker loop) and the process must die AFTER the cleanups run.
func runPanicChild() {
	net, err := topology.GTITM(12, 600)
	if err != nil {
		os.Exit(3)
	}
	wcfg := workload.DefaultConfig()
	wcfg.NumRequests = 8
	wcfg.Horizon = 16
	w, err := workload.Generate(net, wcfg, 600)
	if err != nil {
		os.Exit(3)
	}
	r, err := sim.NewRunner(net, w, sim.Config{Seed: 600, DemandsGiven: true})
	if err != nil {
		os.Exit(3)
	}
	pol, err := algorithms.NewOLGD(algorithms.DefaultOLGDConfig(net.NumStations()))
	if err != nil {
		os.Exit(3)
	}
	cell, err := r.NewCell(pol)
	if err != nil {
		os.Exit(3)
	}
	s, err := New(Config{
		Shards:  1,
		OnPanic: func() { os.Stdout.WriteString("CLEANUPS-RAN\n"); os.Stdout.Sync() },
	}, []*sim.Cell{cell})
	if err != nil {
		os.Exit(3)
	}
	// A closed done channel makes the worker's result send panic — a
	// stand-in for any bug inside the worker loop.
	done := make(chan taskResult)
	close(done)
	s.shards[0].queue <- task{kind: taskDecide, cell: s.cells[0], done: done, rc: s.newReqCtx("decide"), enq: time.Now()}
	select {} // the worker's re-panic kills the process
}
