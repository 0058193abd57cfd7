// Command mecbench is the end-to-end benchmark of the mecd decision daemon.
// It launches the real mecd binary as a child process, drives it over
// loopback HTTP from one open-loop generator, checks every answer, and
// prints the end-to-end metrics. With -trace 1 it instead replays the same
// schedule layer by layer (HTTP, DecisionServer in process, bare cells,
// persist) and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"time"

	"github.com/mecsim/l4e"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mecbench:", err)
		os.Exit(1)
	}
}

// workload is one traffic mix against one mecd configuration.
type workload struct {
	name  string
	cells int
	chaos string
	// durable runs mecd with -state-dir and follows every decide with an
	// observe carrying the decision's played_delays.
	durable bool
	law     string  // arrival law: "poisson" or "onoff"
	rate    float64 // mean offered decides/s of the fixed-rate phase
	// fixedShare is the share of -seconds spent at the fixed rate; the rest
	// is the sustained-rate search.
	fixedShare float64
	// searchFrom is the first search probe's rate as a share of the
	// closed-loop capacity.
	searchFrom float64
}

var workloads = []workload{
	// 40 decides/s is about a quarter of the Poisson knee on a 2-CPU x86 VM.
	{name: "steady", cells: 16, law: "poisson", rate: 40, fixedShare: 0.6, searchFrom: 0.95},
	// 64% of 30 s at 60/s gives every cell 72 decides: one checkpoint. The
	// search starts lower because every cell checkpoints again during it.
	{name: "durable", cells: 16, durable: true, law: "poisson", rate: 60, fixedShare: 0.64, searchFrom: 0.85},
	// Bursts at 3 × 40/s stay below the knee, so the backlog they build
	// drains between bursts. The search starts where paced bursts run at
	// 1.14 × capacity and leave about 35 ms of backlog each.
	{name: "bursty", cells: 64, chaos: "surge:0.05:3:4,regional:0.03:3", law: "onoff", rate: 40, fixedShare: 0.6, searchFrom: 0.38},
}

const (
	stations        = 30
	checkpointEvery = 64
	conns           = 2
	// p99LimitMS is the decide p99 a sustained rate must meet.
	p99LimitMS = 50.0
	// setupLaunches is how many times a run starts mecd to time set-up,
	// after setupWarmups untimed starts: the first starts of a run page in
	// the fresh binary and run slower.
	setupLaunches, setupWarmups = 21, 3
	// restarts is how many kill -9 + restart cycles time recovery; a
	// durable restart replays the WAL tail and takes about a second.
	restarts, durableRestarts = 15, 5
	// The sustained-rate search: capacity is measured over capacityWindows
	// windows, then paced probes of probeWindows windows each step down by
	// searchStep (squared after every further failure) until one passes, and
	// bisect until the passing and failing rates are within searchResolution.
	capacityWindows  = 4
	probeWindows     = 3
	searchStep       = 0.9
	searchResolution = 1.06
	// maxLatenessMS bounds the generator's own p99 send delay; above it the
	// run is invalid because the generator, not mecd, set the pace.
	maxLatenessMS = 20.0
	// fixedGrace is how long after the last due time the fixed phase may
	// take to send its backlog before entries count as unsent.
	fixedGrace = 5 * time.Second
)

// The search's measuring spans are variables so that tests can shorten them.
var (
	capacityDur = 2 * time.Second
	probeWindow = time.Second
)

// bench is one benchmark invocation.
type bench struct {
	wl      workload
	mecd    string
	work    string
	seed    int64
	seconds float64
	out     io.Writer
	// problems collects failed correctness checks; any makes the run
	// incorrect.
	problems []string
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("mecbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: steady, durable or bursty")
		seed    = fs.Int64("seed", 1, "workload seed: cell scenarios and arrival schedules")
		seconds = fs.Float64("seconds", 30, "measured seconds per run")
		trace   = fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
		mecd    = fs.String("mecd", "", "path of the mecd binary")
		work    = fs.String("work", "", "directory for durable state and temp files")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	b := &bench{mecd: *mecd, seed: *seed, seconds: *seconds, out: stdout}
	for _, w := range workloads {
		if w.name == *name {
			b.wl = w
		}
	}
	switch {
	case b.wl.name == "":
		return fmt.Errorf("-workload %q: want steady, durable or bursty", *name)
	case *mecd == "" || *work == "":
		return fmt.Errorf("-mecd and -work are required")
	case *seconds <= 0:
		return fmt.Errorf("-seconds %v: want > 0", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	// The harness's own GC pauses show up as generator lateness and, in the
	// traced run, inside the in-process server's latency; collect rarely.
	debug.SetGCPercent(400)
	b.work = filepath.Join(*work, fmt.Sprintf("run-%s-%d", b.wl.name, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(b.work)

	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.endToEnd()
	}
	if err != nil {
		return err
	}
	for _, p := range b.problems {
		fmt.Fprintln(stdout, "CHECK FAILED:", p)
	}
	res.Correct = len(b.problems) == 0
	names := make([]string, 0, len(res.Metrics))
	for n, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value", n)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%s seed %d: %d ops attempted, %d failed\n", b.wl.name, b.seed, res.Attempted, res.Failed)
	for _, n := range names {
		fmt.Fprintf(stdout, "  %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

func (b *bench) failf(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.out, format+"\n", args...)
}

// mecdArgs are the workload's mecd flags.
func (b *bench) mecdArgs(stateDir string) []string {
	a := []string{"-cells", strconv.Itoa(b.wl.cells), "-seed", strconv.FormatInt(b.seed, 10), "-stations", strconv.Itoa(stations)}
	if b.wl.chaos != "" {
		a = append(a, "-chaos", b.wl.chaos)
	}
	if b.wl.durable {
		a = append(a, "-state-dir", stateDir, "-checkpoint-interval", strconv.Itoa(checkpointEvery))
	}
	return a
}

// launch starts mecd on an empty state directory of its own.
func (b *bench) launch(k int) (*daemon, string, error) {
	dir := filepath.Join(b.work, "state-"+strconv.Itoa(k))
	if err := os.RemoveAll(dir); err != nil {
		return nil, "", err
	}
	d, err := startMecd(b.mecd, b.mecdArgs(dir))
	return d, dir, err
}

// setup launches mecd setupWarmups+setupLaunches times and keeps the last
// one running. It returns the median exec → /healthz 200 time of the timed
// launches.
func (b *bench) setup() (*daemon, string, float64, error) {
	var times []float64
	for k := 0; ; k++ {
		d, dir, err := b.launch(k)
		if err != nil {
			return nil, "", 0, err
		}
		if k >= setupWarmups {
			times = append(times, d.ready.Seconds())
		}
		if len(times) == setupLaunches {
			b.logf("setup: %d launches, min %.4f s, median %.4f s, max %.4f s",
				len(times), pct(times, 0), median(times), pct(times, 1))
			return d, dir, median(times), nil
		}
		d.kill()
	}
}

func (b *bench) fixedDur() time.Duration {
	return time.Duration(b.seconds * b.wl.fixedShare * float64(time.Second))
}

func (b *bench) driveHTTP(base string, sched [][]entry, grace time.Duration) *phase {
	ts := make([]target, len(sched))
	for i := range ts {
		h := newHTTPTarget(base)
		defer h.close()
		ts[i] = h
	}
	return drive(ts, sched, b.wl.durable, grace)
}

// checkPhase validates a phase's answers against the ledger and the
// generator's own schedule.
func (b *bench) checkPhase(label string, p *phase, led *ledger) phaseStats {
	st := p.stats()
	if st.firstErr != nil {
		b.failf("%s: %d of %d ops failed, first: %v", label, st.failed, st.attempted, st.firstErr)
	}
	if bad, first := led.record(p); bad > 0 {
		st.failed += bad
		b.failf("%s: %d decides out of slot order, first: %v", label, bad, first)
	}
	if l := pct(st.latenessMS, 0.99); l > maxLatenessMS || p.unsent > 0 {
		b.failf("run invalid: %s: generator lateness p99 %.2f ms (limit %.0f ms), %d entries unsent; the generator fell behind its schedule",
			label, l, maxLatenessMS, p.unsent)
	}
	return st
}

func (b *bench) checkCells(label, base string, led *ledger) []cellRow {
	rows, err := fetchCells(base)
	if err == nil {
		err = led.matches(rows)
	}
	if err != nil {
		b.failf("%s: %v", label, err)
	}
	return rows
}

// endToEnd is the untraced run: set-up, the fixed-rate phase, kill -9 and
// restart, the sustained-rate search, then the in-process oracle replay.
func (b *bench) endToEnd() (result, error) {
	d, dir, setupS, err := b.setup()
	if err != nil {
		return result{}, err
	}
	defer func() { d.kill() }()

	led := newLedger(b.wl.cells)
	sched := schedule(b.wl.law, false, b.wl.rate, b.fixedDur(), conns, b.wl.cells, b.seed)
	before, err := sampleProc(d.pid())
	if err != nil {
		return result{}, err
	}
	ph := b.driveHTTP(d.base, sched, fixedGrace)
	after, err := sampleProc(d.pid())
	if err != nil {
		return result{}, err
	}
	st := b.checkPhase("fixed phase", ph, led)
	pre := b.checkCells("fixed phase", d.base, led)
	avgDelay := led.servedDelay()

	// Crash only after the generator drained, so the WAL tail to replay is
	// the same in every run. Restarting again replays the same tail.
	n := restarts
	if b.wl.durable {
		n = durableRestarts
	}
	var ready []float64
	for k := 0; k < n; k++ {
		d.kill()
		nd, err := startMecd(b.mecd, b.mecdArgs(dir))
		if err != nil {
			return result{}, fmt.Errorf("restart: %w", err)
		}
		d = nd
		ready = append(ready, d.ready.Seconds())
	}
	recoveryS := median(ready)
	if !b.wl.durable {
		led = newLedger(b.wl.cells)
	}
	post := b.checkCells("after restart", d.base, led)
	if b.wl.durable {
		for i := range pre {
			if i >= len(post) || post[i].Slot != pre[i].Slot ||
				math.Float64bits(post[i].AvgDelayMS) != math.Float64bits(pre[i].AvgDelayMS) {
				b.failf("recovery: cell %d differs from its state before kill -9", i)
				break
			}
		}
	}

	sustained := b.search(d.base, led)
	b.checkCells("after search", d.base, led)
	d.kill()

	cell := rand.New(rand.NewSource(b.seed)).Intn(b.wl.cells)
	if err := b.replay(cell, led.history[cell]); err != nil {
		b.failf("oracle: %v", err)
	}

	m := metrics{}
	m.set("decide_p50_ms", median(st.decideMS), "ms")
	m.set("sustained_per_s", sustained, "1/s")
	m.set("avg_delay_ms", avgDelay, "ms")
	m.set("server_cpu_ms_per_decide", msOf(after.cpu-before.cpu)/float64(len(st.decideMS)), "ms")
	m.set("mecd_rss_mb", float64(after.hwmKB)/1024, "MB")
	m.set("setup_s", setupS, "s")
	m.set("recovery_s", recoveryS, "s")
	b.logf("fixed phase: %d decides at %.0f/s over %v", len(st.decideMS), b.wl.rate, b.fixedDur())
	b.logf("  decide_p90_ms %.4f  decide_p99_ms %.4f", pct(st.decideMS, 0.90), pct(st.decideMS, 0.99))
	if len(st.obsMS) > 0 {
		b.logf("  observe_p50_ms %.4f  observe_p99_ms %.4f  (n=%d)", median(st.obsMS), pct(st.obsMS, 0.99), len(st.obsMS))
	}
	b.logf("  error_share %.4f  client.lateness_p99_ms %.4f  client.unsent %d",
		float64(st.failed)/float64(st.attempted), pct(st.latenessMS, 0.99), ph.unsent)
	return result{Attempted: st.attempted, Failed: st.failed, Metrics: m}, nil
}

// search estimates the highest offered rate whose decide p99 stays within
// p99LimitMS with no failed op and no growing backlog (every entry is sent
// within p99LimitMS of its due time). It measures the two connections'
// closed-loop capacity C first (the median of four half-second windows),
// then offers paced arrivals with the workload's rate shape at
// searchFrom·C. While probes fail it steps down, by searchStep at first and
// by the square of the last step after every further failure, but never
// below the fixed phase's rate. Then it bisects (geometrically) between the
// highest passing and the lowest failing rate, or half a step up if none
// failed, until they are within searchResolution. If even the fixed rate
// fails, the run fails and the search returns 0.
//
// Paced arrivals fail a probe on capacity rather than on how random
// arrivals clustered, and starting from a measured capacity keeps one slow
// probe from sending a bisection astray. A probe meets the p99 limit when
// most of its one-second windows do, so one stall of the machine, which
// would hold up every request queued behind it, fails only its window.
func (b *bench) search(base string, led *ledger) float64 {
	probe := func(rate float64, k int) bool {
		sched := schedule(b.wl.law, true, rate, probeWindows*probeWindow, conns, b.wl.cells, b.seed+1000*int64(k+1))
		ph := b.driveHTTP(base, sched, time.Duration(p99LimitMS*float64(time.Millisecond)))
		st := b.searchPhase(ph, led)
		windows := make([][]float64, probeWindows)
		for _, ops := range ph.ops {
			for _, o := range ops {
				if o.err == nil {
					w := min(int(o.intended.Sub(ph.start)/probeWindow), probeWindows-1)
					windows[w] = append(windows[w], msOf(o.latency()))
				}
			}
		}
		met := 0
		var p99s []string
		for _, w := range windows {
			p99 := pct(w, 0.99)
			if p99 <= p99LimitMS {
				met++
			}
			p99s = append(p99s, fmt.Sprintf("%.1f", p99))
		}
		pass := st.failed == 0 && 2*met > probeWindows
		b.logf("search: %7.1f/s  decides %4d  window p99s %v ms  unsent %3d  pass %v", rate, len(st.decideMS), p99s, ph.unsent, pass)
		return pass
	}

	// Closed loop: every entry is due at once, so each connection sends
	// back to back until the capacity window closes.
	sched := make([][]entry, conns)
	for c := range sched {
		for cell := c; cell < b.wl.cells; cell += conns {
			sched[c] = append(sched[c], entry{cell: cell})
		}
		for len(sched[c]) < 5000 {
			sched[c] = append(sched[c], sched[c]...)
		}
	}
	ph := b.driveHTTP(base, sched, capacityDur)
	b.searchPhase(ph, led)
	// The median window's throughput, so one stall does not lower it.
	counts := make([]float64, capacityWindows)
	for _, ops := range ph.ops {
		for _, o := range ops {
			end := o.done
			if o.observed {
				end = o.obsDone
			}
			if w := int(end.Sub(ph.start) * capacityWindows / capacityDur); o.err == nil && w < capacityWindows {
				counts[w]++
			}
		}
	}
	capacity := median(counts) * capacityWindows / capacityDur.Seconds()
	b.logf("search: closed-loop capacity %.1f decides/s (window counts %v)", capacity, counts)

	// failed is the lowest rate that failed, passed the highest that passed.
	rate, failed, step, k := max(b.wl.searchFrom*capacity, b.wl.rate), 0.0, searchStep, 0
	for ; !probe(rate, k); k++ {
		if rate <= b.wl.rate {
			b.failf("search: decide p99 above %.0f ms down to the fixed rate %.1f/s", p99LimitMS, rate)
			return 0
		}
		failed, rate, step = rate, max(rate*step, b.wl.rate), step*step
	}
	passed := rate
	if failed == 0 {
		failed = passed / searchStep
	}
	for k++; failed/passed > searchResolution; k++ {
		if mid := math.Sqrt(passed * failed); probe(mid, k) {
			passed = mid
		} else {
			failed = mid
		}
	}
	return passed
}

// searchPhase checks a search phase's answers. Unsent entries are how a
// probe fails, not errors.
func (b *bench) searchPhase(p *phase, led *ledger) phaseStats {
	st := p.stats()
	if st.firstErr != nil {
		b.failf("search: %v", st.firstErr)
	}
	if bad, first := led.record(p); bad > 0 {
		b.failf("search: %v", first)
	}
	return st
}

// scenarioOpts mirrors mecd's per-cell scenario options for the flags the
// workloads pass.
func (b *bench) scenarioOpts(cell int) []l4e.ScenarioOption {
	opts := []l4e.ScenarioOption{
		l4e.WithStations(stations),
		l4e.WithSeed(b.seed + int64(cell)),
		l4e.WithDemandsGiven(true),
		l4e.WithSolveBudget(0),
	}
	if b.wl.chaos != "" {
		// mecd's default -chaos-seed base is -seed + 4000.
		opts = append(opts, l4e.WithChaos(b.wl.chaos), l4e.WithChaosSeed(b.seed+4000+int64(cell)))
	}
	return opts
}

// newCell builds cell i exactly as mecd builds it.
func (b *bench) newCell(cell int) (*l4e.Cell, error) {
	scn, err := l4e.NewScenario(b.scenarioOpts(cell)...)
	if err != nil {
		return nil, err
	}
	return scn.NewCell("OL_GD")
}

// replay drives a fresh in-process cell through one cell's served history,
// with the daemon's checkpoint barriers on durable workloads, and requires
// identical decisions.
func (b *bench) replay(cell int, hist []served) error {
	c, err := b.newCell(cell)
	if err != nil {
		return err
	}
	for k, s := range hist {
		d, err := c.Decide(nil)
		if err != nil {
			return fmt.Errorf("cell %d decide %d: %w", cell, k, err)
		}
		if err := sameDecision(fromCell(cell, d), s.dec); err != nil {
			return fmt.Errorf("cell %d slot %d: %w", cell, d.Slot, err)
		}
		if b.wl.durable && (k+1)%checkpointEvery == 0 {
			if _, err := c.Checkpoint(); err != nil {
				return err
			}
		}
		if s.feedback != nil {
			played, err := playedOf(s.feedback)
			if err != nil {
				return err
			}
			if err := c.Observe(played, nil); err != nil {
				return fmt.Errorf("cell %d observe %d: %w", cell, k, err)
			}
		}
	}
	return nil
}

// sameDecision compares two decisions bit for bit.
func sameDecision(got, want *decision) error {
	switch {
	case got.Slot != want.Slot:
		return fmt.Errorf("slot %d, served %d", got.Slot, want.Slot)
	case math.Float64bits(got.DelayMS) != math.Float64bits(want.DelayMS):
		return fmt.Errorf("delay_ms %v, served %v", got.DelayMS, want.DelayMS)
	case !slices.Equal(got.Requests, want.Requests) || !slices.Equal(got.Stations, want.Stations):
		return fmt.Errorf("assignment differs from the served one")
	case len(got.PlayedDelays) != len(want.PlayedDelays):
		return fmt.Errorf("%d played delays, served %d", len(got.PlayedDelays), len(want.PlayedDelays))
	}
	for k, v := range got.PlayedDelays {
		if w, ok := want.PlayedDelays[k]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("played delay of station %s differs", k)
		}
	}
	return nil
}
