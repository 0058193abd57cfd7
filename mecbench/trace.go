package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/mecsim/l4e"
	"github.com/mecsim/l4e/internal/persist"
	"github.com/mecsim/l4e/internal/sim"
)

// replayCells is how many cells the traced run re-applies through
// Cell.ApplyOp to time WAL replay.
const replayCells = 4

// span is one timed call of the traced run. Spans of one request share its
// id, (cell, slot), across every level.
type span struct {
	Name   string    `json:"name"`
	Cell   int       `json:"cell"`
	Slot   int       `json:"slot"`
	Parent string    `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) ms() float64 { return msOf(s.End.Sub(s.Start)) }

// tracer keeps every span in memory until the run ends.
type tracer struct{ spans []span }

func (t *tracer) add(name string, cell, slot int, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Cell: cell, Slot: slot, Parent: parent, Start: start, End: end})
}

// durations returns the durations in ms of every span with this name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cellOps is one cell's history as the sim level played it: the WAL
// records the daemon would log, the indices into them where it would
// checkpoint, and the checkpoint payloads (the last one taken after the
// final op).
type cellOps struct {
	ops      [][]byte
	barriers []int
	payloads [][]byte
}

// traced replays the fixed-rate schedule four times, each time one layer
// lower, and derives every layer's self time as its level's figure minus
// the level below:
//
//  1. HTTP to a fresh mecd child (client spans: due, sent, done), after one
//     untraced pass on another fresh child for the tracing overhead;
//  2. a DecisionServer in process over identically built cells;
//  3. bare cells through Cell.Decide/Observe/Checkpoint, then Cell.ApplyOp;
//  4. persist.Open/Append/Checkpoint on the sim level's payloads.
func (b *bench) traced() (result, error) {
	tr := &tracer{}
	sched := schedule(b.wl.law, false, b.wl.rate, b.fixedDur(), conns, b.wl.cells, b.seed)

	// Level 1: HTTP.
	var untraced, st phaseStats
	led := newLedger(b.wl.cells)
	var httpPhase *phase
	for k := 0; k < 2; k++ {
		d, _, err := b.launch(k)
		if err != nil {
			return result{}, err
		}
		if k == 0 {
			untraced = b.driveHTTP(d.base, sched, fixedGrace).stats()
			if untraced.firstErr != nil {
				b.failf("untraced HTTP level: %v", untraced.firstErr)
			}
		} else {
			httpPhase = b.driveHTTP(d.base, sched, fixedGrace)
			st = b.checkPhase("HTTP level", httpPhase, led)
			b.checkCells("HTTP level", d.base, led)
		}
		d.kill()
	}
	for _, o := range httpPhase.all() {
		if o.dec == nil {
			continue
		}
		slot := o.dec.Slot
		tr.add("client.decide", o.cell, slot, "", o.intended, o.done)
		tr.add("http.decide", o.cell, slot, "client.decide", o.sent, o.done)
		if o.observed {
			tr.add("http.observe", o.cell, slot, "", o.obsSent, o.obsDone)
		}
	}

	// Level 2: the DecisionServer in process, same schedule, no HTTP.
	cells, err := b.buildCells(tr)
	if err != nil {
		return result{}, err
	}
	cfg := l4e.DecisionServerConfig{}
	if b.wl.durable {
		cfg.StateDir = filepath.Join(b.work, "serve-state")
		cfg.CheckpointEvery = checkpointEvery
	}
	srv, err := l4e.NewDecisionServer(cfg, cells)
	if err != nil {
		return result{}, err
	}
	<-srv.Recovered()
	servePhase := drive([]target{serveTarget{srv}, serveTarget{srv}}, sched, b.wl.durable, fixedGrace)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = srv.Shutdown(ctx)
	cancel()
	if err != nil {
		return result{}, fmt.Errorf("serve level shutdown: %w", err)
	}
	rejected := 0
	for _, o := range servePhase.all() {
		switch {
		case errors.Is(o.err, l4e.ErrServerBusy):
			rejected++
		case o.err != nil:
			b.failf("serve level: cell %d: %v", o.cell, o.err)
		default:
			tr.add("serve.decide", o.cell, o.dec.Slot, "http.decide", o.sent, o.done)
			if o.observed {
				tr.add("serve.observe", o.cell, o.dec.Slot, "http.observe", o.obsSent, o.obsDone)
			}
		}
	}
	b.sameAsLedger("serve level", servePhase, led)

	// Level 3: bare cells, each driven through its served history.
	hist, decs, err := b.simLevel(tr, led)
	if err != nil {
		return result{}, err
	}
	replayMS, err := b.replayLevel(led, hist)
	if err != nil {
		return result{}, err
	}

	// Level 4: persist, on the sim level's real payloads.
	pm, err := b.persistLevel(hist)
	if err != nil {
		return result{}, err
	}

	if err := tr.write(filepath.Join(filepath.Dir(b.work), "spans-"+b.wl.name+".jsonl")); err != nil {
		return result{}, err
	}
	policy := make([]float64, len(decs))
	for i, d := range decs {
		policy[i] = d.DecideMS
	}
	m := b.layerMetrics(tr, httpPhase, st, rejected, decs, policy, replayMS, pm)
	b.layerReport(tr, policy, untraced, st, pm)
	return result{Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// buildCells builds every cell as mecd does, timing each build.
func (b *bench) buildCells(tr *tracer) ([]*l4e.Cell, error) {
	cells := make([]*l4e.Cell, b.wl.cells)
	for i := range cells {
		t0 := time.Now()
		c, err := b.newCell(i)
		if err != nil {
			return nil, fmt.Errorf("cell %d: %w", i, err)
		}
		tr.add("setup.cell_build", i, 0, "", t0, time.Now())
		cells[i] = c
	}
	return cells, nil
}

// sameAsLedger requires a level's decisions to equal the HTTP level's.
func (b *bench) sameAsLedger(label string, p *phase, led *ledger) {
	next := make([]int, len(led.history))
	for _, o := range p.all() {
		if o.dec == nil {
			continue
		}
		h := led.history[o.cell]
		k := next[o.cell]
		next[o.cell]++
		if k >= len(h) {
			b.failf("%s: cell %d served more decides than the HTTP level", label, o.cell)
			return
		}
		if err := sameDecision(o.dec, h[k].dec); err != nil {
			b.failf("%s: cell %d: %v", label, o.cell, err)
			return
		}
	}
}

// simLevel drives fresh cells through the ledger's per-cell histories. On
// workloads without explicit observes, the observe Cell.Decide would run
// first is called on its own, so decide and observe are timed apart; the
// "sim.served" span is their sum, the cell work behind one served decide.
func (b *bench) simLevel(tr *tracer, led *ledger) ([]cellOps, []*decision, error) {
	cells, err := b.buildCells(tr)
	if err != nil {
		return nil, nil, err
	}
	hist := make([]cellOps, len(cells))
	var decs []*decision
	for i, c := range cells {
		h := &hist[i]
		for k, s := range led.history[i] {
			start := time.Now()
			if c.PendingObserve() {
				if err := c.Observe(nil, nil); err != nil {
					return nil, nil, err
				}
				tr.add("sim.observe", i, s.dec.Slot-1, "sim.served", start, time.Now())
			}
			t0 := time.Now()
			d, err := c.Decide(nil)
			t1 := time.Now()
			if err != nil {
				return nil, nil, fmt.Errorf("sim level cell %d: %w", i, err)
			}
			tr.add("sim.decide", i, d.Slot, "sim.served", t0, t1)
			tr.add("sim.served", i, d.Slot, "serve.decide", start, t1)
			dec := fromCell(i, d)
			decs = append(decs, dec)
			if err := sameDecision(dec, s.dec); err != nil {
				b.failf("sim level: cell %d: %v", i, err)
			}
			h.ops = append(h.ops, sim.EncodeDecideOp(nil))
			if b.wl.durable && (k+1)%checkpointEvery == 0 {
				if err := h.checkpoint(tr, c, i, d.Slot); err != nil {
					return nil, nil, err
				}
			}
			if s.feedback != nil {
				played, err := playedOf(s.feedback)
				if err != nil {
					return nil, nil, err
				}
				t0 := time.Now()
				if err := c.Observe(played, nil); err != nil {
					return nil, nil, err
				}
				tr.add("sim.observe", i, d.Slot, "serve.observe", t0, time.Now())
				h.ops = append(h.ops, sim.EncodeObserveOp(played, nil))
			}
		}
		// A closing checkpoint gives every workload checkpoint samples and
		// the persist level its final snapshot.
		if err := h.checkpoint(tr, c, i, c.Slot()); err != nil {
			return nil, nil, err
		}
	}
	return hist, decs, nil
}

func (h *cellOps) checkpoint(tr *tracer, c *l4e.Cell, cell, slot int) error {
	t0 := time.Now()
	payload, err := c.Checkpoint()
	if err != nil {
		return fmt.Errorf("checkpoint of cell %d: %w", cell, err)
	}
	tr.add("sim.checkpoint", cell, slot, "", t0, time.Now())
	h.barriers = append(h.barriers, len(h.ops))
	h.payloads = append(h.payloads, payload)
	return nil
}

// replayLevel re-applies the first cells' WAL records to fresh cells through
// Cell.ApplyOp, with the checkpoint barriers recovery applies, and requires
// the replayed cell to end where the served one did. It returns the mean ms
// per applied op.
func (b *bench) replayLevel(led *ledger, hist []cellOps) (float64, error) {
	var total time.Duration
	ops := 0
	for i := 0; i < len(hist) && i < replayCells; i++ {
		c, err := b.newCell(i)
		if err != nil {
			return 0, err
		}
		h := hist[i]
		barrier := 0
		for k, rec := range h.ops {
			if barrier < len(h.barriers) && h.barriers[barrier] == k {
				c.ResetPolicyWarmState()
				barrier++
			}
			t0 := time.Now()
			if err := c.ApplyOp(rec); err != nil {
				return 0, fmt.Errorf("replaying cell %d op %d: %w", i, k, err)
			}
			total += time.Since(t0)
			ops++
		}
		st := c.Status()
		if want := led.avgDelay(i); math.Float64bits(st.AvgDelayMS) != math.Float64bits(want) {
			b.failf("replay: cell %d ends at avg delay %v, served %v", i, st.AvgDelayMS, want)
		}
	}
	if ops == 0 {
		return 0, fmt.Errorf("replay: no ops to apply")
	}
	return msOf(total) / float64(ops), nil
}

// persistMetrics are the persist level's figures.
type persistMetrics struct {
	appendMS, checkpointMS, openMS []float64
	walBytes, walOps               int64
	snapshotBytes                  []float64
}

// persistLevel writes every cell's WAL records and checkpoints through a
// persist.Manager in a temp directory beside the durable workload's state,
// in the order the daemon would, then reopens each directory as recovery
// does.
func (b *bench) persistLevel(hist []cellOps) (persistMetrics, error) {
	var pm persistMetrics
	root := filepath.Join(b.work, "persist")
	for i, h := range hist {
		if err := pm.cell(filepath.Join(root, "cell-"+strconv.Itoa(i)), h); err != nil {
			return pm, fmt.Errorf("persist level, cell %d: %w", i, err)
		}
	}
	return pm, os.RemoveAll(root)
}

func (pm *persistMetrics) cell(dir string, h cellOps) error {
	m, _, err := persist.Open(dir, nil)
	if err != nil {
		return err
	}
	// Closes whichever manager is open when an error cuts the cell short.
	defer func() { m.Close() }() //nolint:errcheck // error paths only; success closes below
	ckpt := func(payload []byte) error {
		t0 := time.Now()
		err := m.Checkpoint(payload)
		pm.checkpointMS = append(pm.checkpointMS, msOf(time.Since(t0)))
		return err
	}
	// The last barrier is the closing checkpoint, taken after the reopen.
	next, sinceCkpt := 0, 0
	for k := 0; k <= len(h.ops); k++ {
		for ; next < len(h.barriers)-1 && h.barriers[next] == k; next++ {
			if err := ckpt(h.payloads[next]); err != nil {
				return err
			}
			sinceCkpt = 0
		}
		if k == len(h.ops) {
			break
		}
		t0 := time.Now()
		if err := m.Append(h.ops[k]); err != nil {
			return err
		}
		pm.appendMS = append(pm.appendMS, msOf(time.Since(t0)))
		sinceCkpt++
	}
	if sinceCkpt > 0 {
		fi, err := os.Stat(filepath.Join(dir, "wal-"+strconv.FormatUint(m.Generation(), 10)))
		if err != nil {
			return err
		}
		pm.walBytes += fi.Size()
		pm.walOps += int64(sinceCkpt)
	}
	if err := m.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	if m, _, err = persist.Open(dir, nil); err != nil {
		return err
	}
	pm.openMS = append(pm.openMS, msOf(time.Since(t0)))
	if err := ckpt(h.payloads[len(h.payloads)-1]); err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(dir, "snap-"+strconv.FormatUint(m.Generation(), 10)))
	if err != nil {
		return err
	}
	pm.snapshotBytes = append(pm.snapshotBytes, float64(fi.Size()))
	err = m.Close()
	m = nil
	return err
}

// share is the fraction of decisions for which pred holds.
func share(decs []*decision, pred func(*decision) bool) float64 {
	n := 0
	for _, d := range decs {
		if pred(d) {
			n++
		}
	}
	return float64(n) / float64(len(decs))
}

func (b *bench) layerMetrics(tr *tracer, httpPhase *phase, st phaseStats, rejected int,
	decs []*decision, policy []float64, replayMS float64, pm persistMetrics) metrics {
	httpCall, serveCall, served := tr.durations("http.decide"), tr.durations("serve.decide"), tr.durations("sim.served")
	shed := 0
	for _, d := range decs {
		shed += d.Shed
	}
	m := metrics{}
	m.set("client.lateness_p99_ms", pct(st.latenessMS, 0.99), "ms")
	m.set("client.unsent", float64(httpPhase.unsent), "count")
	m.set("serve.http_self_p50_ms", median(httpCall)-median(serveCall), "ms")
	m.set("serve.http_self_p99_ms", pct(httpCall, 0.99)-pct(serveCall, 0.99), "ms")
	m.set("serve.call_p50_ms", median(serveCall), "ms")
	m.set("serve.call_p99_ms", pct(serveCall, 0.99), "ms")
	m.set("serve.self_p50_ms", median(serveCall)-median(served), "ms")
	m.set("serve.self_p99_ms", pct(serveCall, 0.99)-pct(served, 0.99), "ms")
	m.set("serve.rejected", float64(rejected), "count")
	m.set("sim.decide_p50_ms", median(tr.durations("sim.decide")), "ms")
	m.set("sim.decide_p99_ms", pct(tr.durations("sim.decide"), 0.99), "ms")
	m.set("sim.observe_p50_ms", median(tr.durations("sim.observe")), "ms")
	m.set("sim.checkpoint_p50_ms", median(tr.durations("sim.checkpoint")), "ms")
	m.set("sim.replay_ms_per_op", replayMS, "ms")
	m.set("caching.policy_decide_p50_ms", median(policy), "ms")
	m.set("caching.policy_decide_p99_ms", pct(policy, 0.99), "ms")
	m.set("caching.warm_share", share(decs, func(d *decision) bool { return d.WarmSolve }), "ratio")
	m.set("caching.skip_share", share(decs, func(d *decision) bool { return d.SkippedSolve }), "ratio")
	m.set("caching.fallback_share", share(decs, func(d *decision) bool { return d.FallbackSolves > 0 }), "ratio")
	m.set("caching.degraded_share", share(decs, func(d *decision) bool { return d.Degraded }), "ratio")
	m.set("caching.shed_per_decide", float64(shed)/float64(len(decs)), "count")
	m.set("persist.append_p50_ms", median(pm.appendMS), "ms")
	m.set("persist.append_p99_ms", pct(pm.appendMS, 0.99), "ms")
	m.set("persist.checkpoint_p50_ms", median(pm.checkpointMS), "ms")
	m.set("persist.checkpoint_p99_ms", pct(pm.checkpointMS, 0.99), "ms")
	m.set("persist.wal_bytes_per_op", float64(pm.walBytes)/float64(pm.walOps), "bytes")
	m.set("persist.snapshot_bytes", median(pm.snapshotBytes), "bytes")
	m.set("persist.open_ms", median(pm.openMS), "ms")
	m.set("setup.cell_build_ms", median(tr.durations("setup.cell_build")), "ms")
	return m
}

// layerReport prints the decide latency split across the levels. Each
// layer's self time is its level's percentile minus the level below's; the
// client level's self time is the unattributed remainder outside mecd
// (schedule backlog and generator delay).
func (b *bench) layerReport(tr *tracer, policy []float64, untraced, st phaseStats, pm persistMetrics) {
	type level struct {
		name, layer string
		xs          []float64
	}
	report := func(route string, levels []level) {
		b.logf("%s latency by level (self = level − level below):", route)
		b.logf("  %-28s %-34s %9s %9s %9s %9s", "level", "self time is", "p50 ms", "p99 ms", "self p50", "self p99")
		for i, l := range levels {
			p50, p99 := median(l.xs), pct(l.xs, 0.99)
			s50, s99 := p50, p99
			if i+1 < len(levels) {
				s50 -= median(levels[i+1].xs)
				s99 -= pct(levels[i+1].xs, 0.99)
			}
			b.logf("  %-28s %-34s %9.3f %9.3f %9.3f %9.3f", l.name, l.layer, p50, p99, s50, s99)
		}
	}
	report("decide", []level{
		{"client (due → done)", "unattributed: backlog, generator", tr.durations("client.decide")},
		{"HTTP call (sent → done)", "serve over HTTP", tr.durations("http.decide")},
		{"Server.Decide", "serve queue/batch (+ persist)", tr.durations("serve.decide")},
		{"Cell.Decide as served", "sim", tr.durations("sim.served")},
		{"policy decide (decide_ms)", "algorithms+caching+flow+lp", policy},
	})
	if b.wl.durable {
		report("observe", []level{
			{"HTTP call (sent → done)", "serve over HTTP", tr.durations("http.observe")},
			{"Server.Observe", "serve queue/batch (+ persist)", tr.durations("serve.observe")},
			{"Cell.Observe", "sim", tr.durations("sim.observe")},
		})
	}
	b.logf("persist: append p50 %.3f ms p99 %.3f ms, checkpoint p50 %.3f ms (on durable these sit inside Server.Decide/Observe)",
		median(pm.appendMS), pct(pm.appendMS, 0.99), median(pm.checkpointMS))
	b.logf("tracing overhead: decide p50 %.3f ms untraced, %.3f ms traced (p99 %.3f / %.3f ms)",
		median(untraced.decideMS), median(st.decideMS), pct(untraced.decideMS, 0.99), pct(st.decideMS, 0.99))
}
