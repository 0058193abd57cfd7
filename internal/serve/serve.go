// Package serve is the long-running decision daemon behind cmd/mecd: it owns
// N independent MEC cells — each a step-wise sim.Cell with its own seeded
// RNG, bandit state, fault schedule, and solver workspaces — and multiplexes
// decide/observe traffic over them through a sharded worker pool.
//
// Concurrency model. Cells are partitioned across shards (cell i belongs to
// shard i mod Shards); each shard is one goroutine draining one bounded FIFO
// queue. Every mutation of a cell happens on its shard's goroutine, so the
// solver hot path stays allocation-free AND data-race-free by construction:
// no locks around the simplex tableau or the flow graph, just ownership.
// Requests to one cell execute in queue (arrival) order, which is what makes
// per-cell request sequences deterministic regardless of how requests to
// OTHER cells interleave.
//
// Batching. A shard worker coalesces up to Config.BatchMax pending requests
// per tick into one batch and solves them back to back — one wakeup, one
// pass over the solver workspaces — instead of ping-ponging per request. The
// realised batch size is observable as the serve.batch_size histogram.
//
// Backpressure. Queues are bounded (Config.QueueDepth). When a shard's queue
// is full the request is REJECTED immediately — HTTP 429 with a Retry-After
// hint — never blocked, so a flooded shard sheds load instead of stalling
// the listener. Rejections count into serve.rejected.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/persist"
	"github.com/mecsim/l4e/internal/sim"
)

// ErrQueueFull is returned by the programmatic Decide/Observe entry points
// when the target shard's queue is at capacity (the HTTP layer maps it to
// 429 + Retry-After).
var ErrQueueFull = errors.New("serve: shard queue full")

// ErrDraining is returned once Shutdown has begun.
var ErrDraining = errors.New("serve: server draining")

// ErrRecovering is returned while crash recovery is replaying durable state
// into the cells; the HTTP layer maps it to 503 + Retry-After so clients
// back off until /healthz flips from "recovering" to "ok".
var ErrRecovering = errors.New("serve: recovering from durable state")

// BatchSizeBuckets are the histogram bounds of serve.batch_size: batch sizes
// are small integers bounded by Config.BatchMax.
var BatchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// Config parameterises a Server.
type Config struct {
	// Shards is the worker-pool size. Cells are partitioned round-robin
	// (cell i → shard i mod Shards). Default: GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds each shard's pending-request queue; a full queue
	// rejects (429) instead of blocking. Default 256.
	QueueDepth int
	// BatchMax caps how many pending requests one shard tick coalesces into
	// a single solve pass. Default 16.
	BatchMax int
	// RetryAfter is the hint advertised on 429 responses before any drain
	// observation exists; once a shard has observed queue waits the hint is
	// grounded in that shard's measured drain instead (see retryAfterSecs).
	// Default 1s.
	RetryAfter time.Duration
	// Observer receives the serving layer's labeled series
	// (serve.requests{cell,route}, serve.batch_size, serve.queue_depth,
	// serve.rejected) and, when enabled, the per-stage latency attribution:
	// serve.e2e_ms{route}, serve.ingest_ms, serve.queue_wait_ms{shard},
	// serve.batch_wait_ms, serve.solve_ms{tier,mode}, serve.reply_ms,
	// serve.encode_ms. With a trace writer or live subscriber attached it
	// also emits one request-scoped span tree per request (root "req" plus
	// ingest / queue_wait / batch_wait / solve / reply / encode children).
	// nil disables instrumentation.
	Observer *obs.Observer
	// SLO attaches a rolling-window SLO tracker fed by every request's
	// end-to-end latency and outcome; /slo serves its report and /healthz
	// becomes readiness-aware (ok/degraded/overloaded from burn rates and
	// ladder-fallback share). nil disables SLO tracking.
	SLO *obs.SLOTracker
	// StateDir enables durable cell state: each cell keeps a versioned
	// snapshot plus a write-ahead log of its Decide/Observe calls under
	// StateDir/cell-<id>. On startup the server recovers every cell from
	// its newest valid snapshot + WAL tail (in the background — requests
	// arriving meanwhile get ErrRecovering) and resumes bit-identically to
	// the process that died. Empty disables durability.
	StateDir string
	// CheckpointEvery is the snapshot cadence in decides per cell: after
	// this many Decide calls the cell's full state is checkpointed and the
	// WAL rotated. Checkpoints are also solver warm-state barriers, so the
	// cadence is part of the deterministic history (a restored run must use
	// the same value). Default 64 when StateDir is set.
	CheckpointEvery int
	// OnPanic runs before a shard-worker panic is re-raised — the hook for
	// flushing buffered diagnostics (mecd points it at its cleanup stack so
	// flight-recorder and trace output survive the crash). The panic still
	// propagates and crashes the process; OnPanic only runs the cleanups
	// first. nil skips the hook (the panic counter still fires).
	OnPanic func()
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Shards <= 0 {
		out.Shards = runtime.GOMAXPROCS(0)
	}
	if out.QueueDepth <= 0 {
		out.QueueDepth = 256
	}
	if out.BatchMax <= 0 {
		out.BatchMax = 16
	}
	if out.RetryAfter <= 0 {
		out.RetryAfter = time.Second
	}
	if out.StateDir != "" && out.CheckpointEvery <= 0 {
		out.CheckpointEvery = 64
	}
	return out
}

type taskKind int

const (
	taskDecide taskKind = iota
	taskObserve
)

// task is one queued unit of work for a shard worker.
type task struct {
	kind   taskKind
	cell   *managedCell
	vols   []float64
	played map[int]float64
	done   chan taskResult
	// rc is the request's span context; enq is the enqueue timestamp the
	// queue-wait stage is measured from.
	rc  *reqCtx
	enq time.Time
}

// reqCtx is the per-request span context threaded from ingest to the shard
// worker: one ID per request, the ingest timestamp, and the route label.
// Every stage of the request — queue wait, batch coalesce, solve, encode —
// reports its duration against this context, so the stages of one request
// share a trace ID and sum to (within scheduler noise) the end-to-end
// latency.
type reqCtx struct {
	trace string    // trace ID; "" when no trace consumer is attached
	route string    // "decide" | "observe"
	start time.Time // ingest time
	// execEnd is stamped by the shard worker the moment the cell call
	// returned, and replied by the caller the moment it received the result;
	// finish derives the reply stage — the worker's stage bookkeeping plus
	// the cross-goroutine handoff — from the two. The worker's write
	// happens-before the caller's read via the task's done channel.
	execEnd time.Time
	replied time.Time
}

// ms converts a duration to float milliseconds (the repo's latency unit).
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

type taskResult struct {
	dec  *sim.CellDecision
	slot int
	err  error
}

// managedCell pairs a cell with its shard assignment and lock-free status
// snapshot (swapped by the owning worker, read by /v1/cells).
type managedCell struct {
	id       int
	shard    int
	cell     *sim.Cell
	status   atomic.Pointer[sim.CellStatus]
	rejected atomic.Int64
	// mgr is the cell's durability manager (nil without StateDir). After
	// recovery completes it is touched only by the owning shard worker, so
	// WAL appends and checkpoints need no locks.
	mgr *persist.Manager
	// sinceCheckpoint counts Decide calls since the last checkpoint — the
	// deterministic checkpoint cadence (owned by the shard worker).
	sinceCheckpoint int
	// recovery is the durable state read at startup, consumed once by the
	// background recovery pass and then dropped.
	recovery *persist.Recovery
}

type shard struct {
	id    int
	queue chan task
	label string
	// waitEWMA is the shard's drain estimate: an exponentially weighted
	// moving average (alpha 1/8) of observed queue waits, in nanoseconds.
	// Written only by the owning worker, read lock-free by retryAfterSecs.
	waitEWMA atomic.Int64
}

// noteWait folds one observed queue wait into the shard's drain estimate.
func (sh *shard) noteWait(d time.Duration) {
	old := sh.waitEWMA.Load()
	if old == 0 {
		sh.waitEWMA.Store(int64(d))
		return
	}
	sh.waitEWMA.Store(old + (int64(d)-old)/8)
}

// Server multiplexes decide/observe traffic over a pool of cells.
type Server struct {
	cfg    Config
	cells  []*managedCell
	shards []*shard
	obs    *obs.Observer
	slo    *obs.SLOTracker
	reqSeq atomic.Uint64
	// recovering gates traffic while the startup recovery pass replays
	// durable state into the cells: submit rejects with ErrRecovering and
	// /healthz reports "recovering" until the pass completes. The replay
	// goroutine has exclusive cell access exactly because no task can be
	// enqueued while the flag is set.
	recovering atomic.Bool
	// recovered is closed when the recovery pass completes (tests and
	// drivers can wait on it instead of polling /healthz).
	recovered chan struct{}

	mu       sync.RWMutex // guards draining vs enqueue
	draining bool
	wg       sync.WaitGroup

	httpSrv *http.Server
	started time.Time
}

// New builds a server over the given cells and starts its shard workers.
// The cells are owned by the server from here on: drive them only through
// Decide/Observe (or the HTTP handler), never directly.
func New(cfg Config, cells []*sim.Cell) (*Server, error) {
	if len(cells) == 0 {
		return nil, fmt.Errorf("serve: no cells")
	}
	cfg = cfg.withDefaults()
	if cfg.Shards > len(cells) {
		cfg.Shards = len(cells)
	}
	s := &Server{cfg: cfg, obs: cfg.Observer, slo: cfg.SLO, started: time.Now(), recovered: make(chan struct{})}
	for id, c := range cells {
		if c == nil {
			return nil, fmt.Errorf("serve: cell %d is nil", id)
		}
		mc := &managedCell{id: id, shard: id % cfg.Shards, cell: c}
		if cfg.StateDir != "" {
			mgr, rec, err := persist.Open(filepath.Join(cfg.StateDir, "cell-"+strconv.Itoa(id)), cfg.Observer)
			if err != nil {
				return nil, fmt.Errorf("serve: opening durable state of cell %d: %w", id, err)
			}
			mc.mgr = mgr
			mc.recovery = rec
		}
		st := c.Status()
		mc.status.Store(&st)
		s.cells = append(s.cells, mc)
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{id: i, queue: make(chan task, cfg.QueueDepth), label: "s" + strconv.Itoa(i)}
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go s.worker(sh)
	}
	if cfg.StateDir != "" {
		// Replay in the background so the HTTP listener can come up and
		// answer health probes immediately; traffic is gated on the flag.
		s.recovering.Store(true)
		go s.recoverAll()
	} else {
		close(s.recovered)
	}
	return s, nil
}

// Recovered returns a channel closed once the startup recovery pass has
// finished (immediately when durability is disabled).
func (s *Server) Recovered() <-chan struct{} { return s.recovered }

// recoverAll restores every cell from its durable state: newest valid
// snapshot as baseline, then the WAL tail replayed as the identical
// Decide/Observe calls the dead process executed. While it runs, submit
// rejects with ErrRecovering, so this goroutine owns the cells outright.
func (s *Server) recoverAll() {
	defer func() {
		s.recovering.Store(false)
		close(s.recovered)
	}()
	for _, mc := range s.cells {
		rec := mc.recovery
		mc.recovery = nil
		if rec == nil {
			continue
		}
		if err := s.recoverCell(mc, rec); err != nil {
			// Semantic failure (snapshot from a different scenario, replay
			// op rejected): bit-identical resume is already lost, so the
			// one honest move left is re-syncing durable state to the
			// fresh in-memory cell — checkpoint it and serve on.
			s.obs.Inc("serve.recovery_failures")
			if payload, cerr := mc.cell.Checkpoint(); cerr == nil {
				if cerr := mc.mgr.Checkpoint(payload); cerr != nil {
					s.obs.Inc("persist.io_errors")
				}
			}
			mc.sinceCheckpoint = 0
		}
		s.snapshot(mc)
	}
}

// recoverCell applies one cell's recovered baseline + WAL tail.
func (s *Server) recoverCell(mc *managedCell, rec *persist.Recovery) error {
	if rec.Baseline != nil {
		if err := mc.cell.RestoreState(rec.Baseline); err != nil {
			return err
		}
	}
	decides := 0
	barrier := 0
	for i, op := range rec.Ops {
		if barrier < len(rec.Barriers) && rec.Barriers[barrier] == i {
			// The dead process checkpointed here (its snapshot was later
			// rejected as corrupt): reproduce the warm-state barrier and
			// the cadence reset it implied.
			mc.cell.ResetPolicyWarmState()
			decides = 0
			barrier++
		}
		if err := mc.cell.ApplyOp(op); err != nil {
			return fmt.Errorf("replaying WAL op %d: %w", i, err)
		}
		if sim.IsDecideOp(op) {
			decides++
		}
	}
	// Continue the deterministic checkpoint cadence where the dead process
	// left off: the last barrier (or the baseline snapshot) was a cadence
	// point, and every decide since counts toward the next one.
	mc.sinceCheckpoint = decides
	return nil
}

// NumCells reports the number of managed cells.
func (s *Server) NumCells() int { return len(s.cells) }

// NumShards reports the worker-pool size.
func (s *Server) NumShards() int { return len(s.shards) }

// worker drains one shard's queue, coalescing up to BatchMax pending tasks
// per tick into a single solve pass over the shard's cells.
func (s *Server) worker(sh *shard) {
	defer s.wg.Done()
	// A panicking worker takes the whole process down (the panic is
	// re-raised), but not before the buffered diagnostics are flushed:
	// without this, mecd's flight-recorder and trace output of the slots
	// leading UP to the crash — the ones worth reading — died with it.
	defer func() {
		if r := recover(); r != nil {
			s.obs.Inc("serve.worker_panics")
			if s.cfg.OnPanic != nil {
				s.cfg.OnPanic()
			}
			panic(r)
		}
	}()
	batch := make([]task, 0, s.cfg.BatchMax)
	for tk := range sh.queue {
		batch = append(batch[:0], tk)
		for len(batch) < s.cfg.BatchMax {
			select {
			case more, ok := <-sh.queue:
				if !ok {
					break
				}
				batch = append(batch, more)
				continue
			default:
			}
			break
		}
		// deq marks the batch-formation instant: everything before it is
		// queue wait, everything between it and a task's own execute start
		// is batch-coalesce wait (the time spent solving earlier tasks of
		// the same batch).
		deq := time.Now()
		if s.obs.Enabled() {
			s.obs.ObserveWith("serve.batch_size", BatchSizeBuckets, float64(len(batch)))
			s.obs.SetL("serve.queue_depth", float64(len(sh.queue)), obs.L("shard", sh.label)...)
		}
		for _, t := range batch {
			t.done <- s.executeTimed(sh, t, deq)
		}
	}
}

// executeTimed wraps execute with the per-stage attribution: ingest (request
// start → enqueue: body decode, cell lookup, request counter, enqueue lock),
// queue wait (enqueue → batch formation), batch wait (batch formation → this
// task's execute), and solve (the cell call itself, labeled by the
// degradation-ladder tier that produced it). Stages land in the labeled
// histograms and, when a trace consumer is attached, as child spans of the
// request's trace; the queue wait always feeds the shard's drain estimate
// behind the 429 Retry-After hint. The bookkeeping after the solve belongs
// to the reply stage that finish records.
func (s *Server) executeTimed(sh *shard, t task, deq time.Time) taskResult {
	execStart := time.Now()
	res := s.execute(t)
	t.rc.execEnd = time.Now()
	solve := t.rc.execEnd.Sub(execStart)
	ingest := t.enq.Sub(t.rc.start)
	queueWait := deq.Sub(t.enq)
	batchWait := execStart.Sub(deq)
	sh.noteWait(queueWait)
	tier, mode := "observe", "observe"
	if t.kind == taskDecide {
		tier, mode = "none", "cold"
		if res.dec != nil {
			if res.dec.Solver != "" {
				tier = res.dec.Solver
			}
			if res.dec.WarmSolve {
				mode = "warm"
			}
		}
	}
	if s.obs.Enabled() {
		s.obs.Observe("serve.ingest_ms", ms(ingest))
		s.obs.ObserveL("serve.queue_wait_ms", ms(queueWait), obs.L("shard", sh.label)...)
		s.obs.Observe("serve.batch_wait_ms", ms(batchWait))
		s.obs.ObserveL("serve.solve_ms", ms(solve), obs.L("tier", tier, "mode", mode)...)
	}
	if t.rc.trace != "" && s.obs.TraceEnabled() {
		s.emitSpan(t.rc, "ingest", res.slot, ms(ingest), nil)
		s.emitSpan(t.rc, "queue_wait", res.slot, ms(queueWait), obs.Fields{"shard": sh.id})
		s.emitSpan(t.rc, "batch_wait", res.slot, ms(batchWait), nil)
		s.emitSpan(t.rc, "solve", res.slot, ms(solve), obs.Fields{"tier": tier, "mode": mode, "cell": t.cell.id})
	}
	return res
}

// emitSpan emits one child span of a request's trace. The root span (stage
// "e2e", span ID "req") is emitted by finish; children parent onto it.
func (s *Server) emitSpan(rc *reqCtx, stage string, slot int, durMS float64, extra obs.Fields) {
	f := obs.Fields{"stage": stage, "dur_ms": durMS, "route": rc.route}
	for k, v := range extra {
		f[k] = v
	}
	s.obs.Emit(obs.Event{Slot: slot, Name: "span", Trace: rc.trace, Span: stage, Parent: "req", Fields: f})
}

// newReqCtx opens a request's span context at ingest time.
func (s *Server) newReqCtx(route string) *reqCtx {
	rc := &reqCtx{route: route, start: time.Now()}
	if s.obs.TraceEnabled() {
		rc.trace = "r" + strconv.FormatUint(s.reqSeq.Add(1), 10)
	}
	return rc
}

// finish seals a request: the end-to-end latency histogram, the root span,
// the encode child span (HTTP path only; zero elsewhere), and the SLO
// record. degraded marks decisions served only through the degradation
// ladder, which feeds the SLO tracker's fallback share.
func (s *Server) finish(rc *reqCtx, slot int, err error, degraded bool, encode time.Duration) {
	e2e := time.Since(rc.start)
	// reply is the tail the caller pays after the cell call returned: the
	// worker's stage bookkeeping, the done-channel handoff and the caller
	// goroutine's rescheduling.
	var reply time.Duration
	if !rc.execEnd.IsZero() {
		reply = rc.replied.Sub(rc.execEnd)
	}
	if s.obs.Enabled() {
		s.obs.ObserveL("serve.e2e_ms", ms(e2e), obs.L("route", rc.route)...)
		if encode > 0 {
			s.obs.Observe("serve.encode_ms", ms(encode))
		}
		if !rc.execEnd.IsZero() {
			s.obs.Observe("serve.reply_ms", ms(reply))
		}
	}
	if rc.trace != "" && s.obs.TraceEnabled() {
		if !rc.execEnd.IsZero() {
			s.emitSpan(rc, "reply", slot, ms(reply), nil)
		}
		if encode > 0 {
			s.emitSpan(rc, "encode", slot, ms(encode), nil)
		}
		f := obs.Fields{"stage": "e2e", "dur_ms": ms(e2e), "route": rc.route}
		if err != nil {
			f["error"] = err.Error()
		}
		s.obs.Emit(obs.Event{Slot: slot, Name: "span", Trace: rc.trace, Span: "req", Fields: f})
	}
	s.slo.Record(ms(e2e), err != nil, degraded)
}

// execute runs one task on its cell (serialized per shard by construction).
// With durability on, every successful call is WAL-logged with its exact
// inputs, and every CheckpointEvery-th Decide snapshots the cell and
// rotates the log — all on the owning shard goroutine, so no locks.
func (s *Server) execute(t task) taskResult {
	switch t.kind {
	case taskDecide:
		// An auto-observe of a pending slot is part of Decide's semantics;
		// replay reproduces it because ApplyOp calls the same Decide.
		dec, err := t.cell.cell.Decide(t.vols)
		s.snapshot(t.cell)
		if err != nil {
			return taskResult{err: err}
		}
		if t.cell.mgr != nil {
			s.logOp(t.cell, sim.EncodeDecideOp(t.vols))
			t.cell.sinceCheckpoint++
			if t.cell.sinceCheckpoint >= s.cfg.CheckpointEvery {
				s.checkpoint(t.cell)
			}
		}
		return taskResult{dec: dec, slot: dec.Slot}
	case taskObserve:
		slot := t.cell.cell.Slot()
		err := t.cell.cell.Observe(t.played, t.vols)
		s.snapshot(t.cell)
		if err == nil && t.cell.mgr != nil {
			s.logOp(t.cell, sim.EncodeObserveOp(t.played, t.vols))
		}
		return taskResult{slot: slot, err: err}
	default:
		return taskResult{err: fmt.Errorf("serve: unknown task kind %d", t.kind)}
	}
}

// logOp appends one executed op to the cell's WAL. An I/O failure cannot
// un-execute the op; it is counted and the daemon serves on (a crash after
// a lost append replays a shorter tail — detected state, not silent
// corruption, since the WAL is a valid prefix either way).
func (s *Server) logOp(mc *managedCell, rec []byte) {
	if err := mc.mgr.Append(rec); err != nil {
		s.obs.Inc("persist.io_errors")
	}
}

// checkpoint snapshots the cell's full state and rotates its WAL. The
// cell-side Checkpoint is also the solver warm-state barrier, making the
// cadence part of the deterministic history — which is why it counts
// decides, not wall time.
func (s *Server) checkpoint(mc *managedCell) {
	payload, err := mc.cell.Checkpoint()
	if err != nil {
		s.obs.Inc("persist.io_errors")
		return
	}
	if err := mc.mgr.Checkpoint(payload); err != nil {
		s.obs.Inc("persist.io_errors")
		return
	}
	mc.sinceCheckpoint = 0
}

// snapshot refreshes the cell's lock-free status view.
func (s *Server) snapshot(mc *managedCell) {
	st := mc.cell.Status()
	mc.status.Store(&st)
}

// submit enqueues a task on the cell's shard, never blocking: a full queue
// returns ErrQueueFull, a draining server ErrDraining.
func (s *Server) submit(t task) error {
	if s.recovering.Load() {
		return ErrRecovering
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	t.enq = time.Now()
	select {
	case s.shards[t.cell.shard].queue <- t:
		return nil
	default:
		t.cell.rejected.Add(1)
		if s.obs.Enabled() {
			s.obs.Inc("serve.rejected")
		}
		return ErrQueueFull
	}
}

// call submits a task and waits for its result.
func (s *Server) call(t task) (taskResult, error) {
	t.done = make(chan taskResult, 1)
	if err := s.submit(t); err != nil {
		return taskResult{}, err
	}
	res := <-t.done
	t.rc.replied = time.Now()
	return res, nil
}

// Decide plays the next slot of cell id, optionally overriding the slot's
// realised demand vector. It is the programmatic twin of POST /v1/decide and
// applies the same backpressure (ErrQueueFull is a rejection, not an error
// of the cell). End-to-end latency on this path covers ingest → queue wait →
// batch wait → solve (no encode stage).
func (s *Server) Decide(id int, volumes []float64) (*sim.CellDecision, error) {
	rc := s.newReqCtx("decide")
	dec, err := s.decide(rc, id, volumes)
	slot := 0
	degraded := false
	if dec != nil {
		slot, degraded = dec.Slot, dec.Degraded
	}
	s.finish(rc, slot, err, degraded, 0)
	return dec, err
}

func (s *Server) decide(rc *reqCtx, id int, volumes []float64) (*sim.CellDecision, error) {
	mc, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	if s.obs.Enabled() {
		s.obs.IncL("serve.requests", obs.L("cell", cellLabel(id), "route", "decide")...)
	}
	res, err := s.call(task{kind: taskDecide, cell: mc, vols: volumes, rc: rc})
	if err != nil {
		return nil, err
	}
	return res.dec, res.err
}

// Observe feeds delay/volume feedback into cell id's pending decision (nil
// arguments apply the decision's own realised measurements). The programmatic
// twin of POST /v1/observe.
func (s *Server) Observe(id int, played map[int]float64, volumes []float64) error {
	rc := s.newReqCtx("observe")
	slot, err := s.observe(rc, id, played, volumes)
	s.finish(rc, slot, err, false, 0)
	return err
}

func (s *Server) observe(rc *reqCtx, id int, played map[int]float64, volumes []float64) (int, error) {
	mc, err := s.lookup(id)
	if err != nil {
		return 0, err
	}
	if s.obs.Enabled() {
		s.obs.IncL("serve.requests", obs.L("cell", cellLabel(id), "route", "observe")...)
	}
	res, err := s.call(task{kind: taskObserve, cell: mc, played: played, vols: volumes, rc: rc})
	if err != nil {
		return 0, err
	}
	return res.slot, res.err
}

// errUnknownCell marks out-of-range cell IDs (a caller error → HTTP 400).
var errUnknownCell = errors.New("serve: unknown cell")

func (s *Server) lookup(id int) (*managedCell, error) {
	if id < 0 || id >= len(s.cells) {
		return nil, fmt.Errorf("%w: %d outside [0,%d)", errUnknownCell, id, len(s.cells))
	}
	return s.cells[id], nil
}

func isLookupErr(err error) bool { return errors.Is(err, errUnknownCell) }

func cellLabel(id int) string { return "c" + strconv.Itoa(id) }

// CellInfo is one cell's status row in GET /v1/cells.
type CellInfo struct {
	Cell     int   `json:"cell"`
	Shard    int   `json:"shard"`
	Rejected int64 `json:"rejected"`
	sim.CellStatus
}

// Cells snapshots every cell's status without touching the shard queues
// (reads are lock-free snapshots refreshed by the owning workers).
func (s *Server) Cells() []CellInfo {
	out := make([]CellInfo, len(s.cells))
	for i, mc := range s.cells {
		out[i] = CellInfo{
			Cell:       mc.id,
			Shard:      mc.shard,
			Rejected:   mc.rejected.Load(),
			CellStatus: *mc.status.Load(),
		}
	}
	return out
}

// Serve runs the HTTP API on lis until Shutdown (or a listener error).
func (s *Server) Serve(lis net.Listener) error {
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	err := s.httpSrv.Serve(lis)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: stop accepting HTTP requests (in-flight
// handlers complete, which drains their queued work), then stop the shard
// workers. Safe to call once; the context bounds the HTTP drain.
func (s *Server) Shutdown(ctx context.Context) error {
	var httpErr error
	if s.httpSrv != nil {
		httpErr = s.httpSrv.Shutdown(ctx)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return httpErr
	}
	s.draining = true
	s.mu.Unlock()
	// No submit can be in flight past this point (submit holds the read
	// lock across its enqueue), so closing the queues is race-free; workers
	// drain what remains and exit.
	for _, sh := range s.shards {
		close(sh.queue)
	}
	s.wg.Wait()
	// Workers are gone; closing the WALs here cannot race an append. The
	// close is a sync + close, so every logged op is durable before exit.
	<-s.recovered
	for _, mc := range s.cells {
		if err := mc.mgr.Close(); err != nil && httpErr == nil {
			httpErr = err
		}
	}
	return httpErr
}

// decideRequest is the POST /v1/decide body.
type decideRequest struct {
	Cell int `json:"cell"`
	// Volumes optionally overrides the slot's realised demand vector
	// (length = the cell's full workload request set).
	Volumes []float64 `json:"volumes,omitempty"`
}

// observeRequest is the POST /v1/observe body. Delays maps station ID →
// measured unit delay (ms); omitted, the cell's own realised measurements
// are applied (closed-loop default).
type observeRequest struct {
	Cell    int                `json:"cell"`
	Delays  map[string]float64 `json:"delays,omitempty"`
	Volumes []float64          `json:"volumes,omitempty"`
}

// Handler returns the daemon's HTTP API:
//
//	POST /v1/decide   {"cell":N,"volumes":[...]}   → CellDecision
//	POST /v1/observe  {"cell":N,"delays":{"3":12}} → ack
//	GET  /v1/cells                                 → per-cell status
//	GET  /slo                                      → SLO burn-rate report
//	GET  /healthz                                  → ok|degraded|overloaded|draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/decide", s.handleDecide)
	mux.HandleFunc("/v1/observe", s.handleObserve)
	mux.HandleFunc("/v1/cells", s.handleCells)
	mux.HandleFunc("/slo", s.handleSLO)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxBodyBytes caps decide and observe request bodies; a larger body is
// answered 413 before it reaches a cell.
const maxBodyBytes = 1 << 20

// decodeBody decodes a size-capped JSON request body into v. On failure it
// has already answered the request: 413 past maxBodyBytes, 400 otherwise.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
	case errors.As(err, &tooLarge):
		http.Error(w, fmt.Sprintf("request body over %d bytes", maxBodyBytes), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
	}
	return err
}

func (s *Server) handleDecide(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	rc := s.newReqCtx("decide")
	var req decideRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.finish(rc, 0, err, false, 0)
		return
	}
	dec, err := s.decide(rc, req.Cell, req.Volumes)
	if err != nil {
		s.writeErr(w, err, req.Cell)
		s.finish(rc, 0, err, false, 0)
		return
	}
	encode, err := s.writeJSONTimed(w, struct {
		Cell int `json:"cell"`
		*sim.CellDecision
	}{req.Cell, dec})
	s.finish(rc, dec.Slot, err, dec.Degraded, encode)
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	rc := s.newReqCtx("observe")
	var req observeRequest
	if err := decodeBody(w, r, &req); err != nil {
		s.finish(rc, 0, err, false, 0)
		return
	}
	var played map[int]float64
	if req.Delays != nil {
		played = make(map[int]float64, len(req.Delays))
		for k, v := range req.Delays {
			i, err := strconv.Atoi(k)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad station id %q", k), http.StatusBadRequest)
				s.finish(rc, 0, fmt.Errorf("bad station id %q", k), false, 0)
				return
			}
			played[i] = v
		}
	}
	slot, err := s.observe(rc, req.Cell, played, req.Volumes)
	if err != nil {
		s.writeErr(w, err, req.Cell)
		s.finish(rc, slot, err, false, 0)
		return
	}
	encode, err := s.writeJSONTimed(w, struct {
		Cell     int  `json:"cell"`
		Observed bool `json:"observed"`
	}{req.Cell, true})
	s.finish(rc, slot, err, false, encode)
}

// handleSLO serves the SLO tracker's burn-rate report.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	if s.slo == nil {
		http.Error(w, "no SLO tracker configured (start mecd with -slo-latency-ms)", http.StatusNotFound)
		return
	}
	_ = s.writeJSON(w, s.slo.Report()) // a failure is answered inside writeJSON
}

// handleHealthz is the readiness-aware health probe: a draining server
// reports 503 "draining"; with an SLO tracker attached the body is the
// tracker's ok/degraded/overloaded state (overloaded → 503, so a load
// balancer stops routing while degraded still serves); without one it is
// the plain liveness "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	state, code := "ok", http.StatusOK
	switch {
	case s.recovering.Load():
		state, code = "recovering", http.StatusServiceUnavailable
	case draining:
		state, code = "draining", http.StatusServiceUnavailable
	case s.slo != nil:
		if state = s.slo.Report().State; state == obs.SLOStateOverloaded {
			code = http.StatusServiceUnavailable
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintln(w, state)
}

func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	_ = s.writeJSON(w, struct { // a failure is answered inside writeJSON
		Shards   int        `json:"shards"`
		BatchMax int        `json:"batch_max"`
		UptimeS  float64    `json:"uptime_s"`
		Cells    []CellInfo `json:"cells"`
	}{len(s.shards), s.cfg.BatchMax, time.Since(s.started).Seconds(), s.Cells()})
}

// retryAfterSecs grounds the 429 Retry-After hint in the target shard's
// observed drain: the queue-wait EWMA is how long recently enqueued work
// waited before service, which is exactly how long a retry arriving at the
// same backlog should expect to wait — so it is also roughly when the full
// queue will have made room. Before any wait has been observed the
// configured constant applies. The hint is clamped to [1s, 60s]: HTTP
// Retry-After has whole-second granularity and a saturated shard should not
// park clients forever.
func (s *Server) retryAfterSecs(shard int) int {
	fallback := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if fallback < 1 {
		fallback = 1
	}
	if shard < 0 || shard >= len(s.shards) {
		return fallback
	}
	ewma := time.Duration(s.shards[shard].waitEWMA.Load())
	if ewma <= 0 {
		return fallback
	}
	secs := int(math.Ceil(ewma.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeJSONTimed is writeJSON that also returns the encode duration.
func (s *Server) writeJSONTimed(w http.ResponseWriter, v any) (time.Duration, error) {
	start := time.Now()
	err := s.writeJSON(w, v)
	return time.Since(start), err
}

// writeErr maps serving errors onto HTTP statuses: backpressure → 429 with a
// Retry-After hint grounded in the rejecting shard's observed drain rate,
// draining → 503, protocol misuse (observe with nothing pending) → 409, bad
// input → 400. cell is the request's target cell (used only to locate the
// shard behind a 429).
func (s *Server) writeErr(w http.ResponseWriter, err error, cell int) {
	switch {
	case errors.Is(err, ErrQueueFull):
		shard := -1
		if len(s.shards) > 0 && cell >= 0 && cell < len(s.cells) {
			shard = s.cells[cell].shard
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(shard)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrRecovering):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSecs(-1)))
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, sim.ErrNoPendingObserve):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, sim.ErrBadVolumes), errors.Is(err, sim.ErrBadStation),
		errors.Is(err, sim.ErrBadDelay), isLookupErr(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON encodes v in full before writing anything, so a value that
// cannot be encoded (a NaN delay, for one) is answered 500 with the encoder's
// error — counted as serve.encode_errors — instead of a 200 with an empty
// body. The returned error is the encoder's.
func (s *Server) writeJSON(w http.ResponseWriter, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.obs.Inc("serve.encode_errors")
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return err
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes()) // a failed write means the client went away
	return nil
}
