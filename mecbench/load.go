package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/mecsim/l4e"
)

// On-off arrivals: each period opens with a burst at burstFactor × the mean
// rate for onShare of the period, then idles at the rate that keeps the
// period's mean equal to the nominal rate.
const (
	onoffPeriod = time.Second
	onShare     = 0.25
	burstFactor = 3.0
)

// offFactor is the idle-part rate multiplier: onShare·burst + (1−onShare)·off = 1.
var offFactor = (1 - onShare*burstFactor) / (1 - onShare)

// entry is one scheduled decide: when it is due, relative to the phase
// start, and which cell it asks.
type entry struct {
	at   time.Duration
	cell int
}

// schedule draws one phase's arrivals for every connection. Connection c owns
// cells c, c+conns, ... and asks them round-robin, so each cell's
// decide→observe order is fixed by the schedule alone.
//
// Random arrivals are a Poisson process conditioned on its count per
// window: the whole phase for "poisson", each burst and each idle stretch
// for "onoff". A window gets exactly its expected number of arrivals (with
// the fraction carried over), placed uniformly at random. Fixed counts keep
// every cell's decide count, and so its checkpoint cadence, and every
// burst's size the same for every seed. Paced arrivals keep the same rate
// shape with fixed gaps, starting at a random offset per connection.
func schedule(law string, paced bool, rate float64, dur time.Duration, conns, cells int, seed int64) [][]entry {
	// Windows of constant rate: [from, to) at rate multiplier factor.
	type window struct {
		from, to time.Duration
		factor   float64
	}
	windows := []window{{0, dur, 1}}
	if law == "onoff" {
		windows = nil
		on := time.Duration(onShare * float64(onoffPeriod))
		for p := time.Duration(0); p < dur; p += onoffPeriod {
			windows = append(windows,
				window{p, min(p+on, dur), burstFactor},
				window{min(p+on, dur), min(p+onoffPeriod, dur), offFactor})
		}
	}
	perConn := rate / float64(conns)
	out := make([][]entry, conns)
	for c := range out {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		var ats []time.Duration
		next, carry := rng.Float64(), 0.0 // paced: gaps to the next arrival; random: fractional count
		for _, w := range windows {
			r := perConn * w.factor
			span := w.to - w.from
			if paced {
				for ; next < span.Seconds()*r; next++ {
					ats = append(ats, w.from+time.Duration(next/r*float64(time.Second)))
				}
				next -= span.Seconds() * r
				continue
			}
			carry += span.Seconds() * r
			n := int(carry)
			carry -= float64(n)
			start := len(ats)
			for i := 0; i < n; i++ {
				ats = append(ats, w.from+time.Duration(rng.Float64()*float64(span)))
			}
			win := ats[start:]
			sort.Slice(win, func(i, j int) bool { return win[i] < win[j] })
		}
		var mine []int
		for cell := c; cell < cells; cell += conns {
			mine = append(mine, cell)
		}
		for i, at := range ats {
			out[c] = append(out[c], entry{at: at, cell: mine[i%len(mine)]})
		}
	}
	return out
}

// decision is the part of a /v1/decide body the harness checks and uses.
type decision struct {
	Cell           int                `json:"cell"`
	Slot           int                `json:"slot"`
	Requests       []int              `json:"requests"`
	Stations       []int              `json:"stations"`
	DelayMS        float64            `json:"delay_ms"`
	DecideMS       float64            `json:"decide_ms"`
	Degraded       bool               `json:"degraded"`
	Solver         string             `json:"solver"`
	FallbackSolves int                `json:"fallback_solves"`
	Shed           int                `json:"shed"`
	WarmSolve      bool               `json:"warm_solve"`
	SkippedSolve   bool               `json:"skipped_solve"`
	PlayedDelays   map[string]float64 `json:"played_delays"`
}

// parseDecision validates one decide reply. An empty or unparsable body is
// an error even under a 200.
func parseDecision(body []byte, cell int) (*decision, error) {
	var d decision
	if err := json.Unmarshal(body, &d); err != nil {
		return nil, fmt.Errorf("decide body: %w", err)
	}
	if d.Cell != cell {
		return nil, fmt.Errorf("decide body names cell %d, asked %d", d.Cell, cell)
	}
	if len(d.Stations) != len(d.Requests) {
		return nil, fmt.Errorf("decide body: %d stations for %d requests", len(d.Stations), len(d.Requests))
	}
	if d.PlayedDelays == nil {
		return nil, fmt.Errorf("decide body: no played_delays")
	}
	return &d, nil
}

// fromCell converts an in-process decision to the wire form.
func fromCell(cell int, d *l4e.CellDecision) *decision {
	played := make(map[string]float64, len(d.PlayedDelays))
	for k, v := range d.PlayedDelays {
		played[strconv.Itoa(k)] = v
	}
	return &decision{
		Cell: cell, Slot: d.Slot, Requests: d.Requests, Stations: d.Stations,
		DelayMS: d.DelayMS, DecideMS: d.DecideMS, Degraded: d.Degraded, Solver: d.Solver,
		FallbackSolves: d.FallbackSolves, Shed: d.Shed, WarmSolve: d.WarmSolve,
		SkippedSolve: d.SkippedSolve, PlayedDelays: played,
	}
}

// playedOf converts wire-form played delays back to station IDs.
func playedOf(delays map[string]float64) (map[int]float64, error) {
	out := make(map[int]float64, len(delays))
	for k, v := range delays {
		i, err := strconv.Atoi(k)
		if err != nil {
			return nil, fmt.Errorf("station id %q: %w", k, err)
		}
		out[i] = v
	}
	return out, nil
}

// target is what a generator connection sends its requests to: mecd over
// HTTP, or a DecisionServer in process.
type target interface {
	decide(cell int) (*decision, error)
	observe(cell int, delays map[string]float64) error
}

// httpTarget is one keep-alive loopback connection to mecd.
type httpTarget struct {
	base   string
	client *http.Client
}

func newHTTPTarget(base string) *httpTarget {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &httpTarget{base: base, client: &http.Client{Transport: tr, Timeout: 30 * time.Second}}
}

func (h *httpTarget) close() { h.client.CloseIdleConnections() }

func (h *httpTarget) post(path string, body []byte) ([]byte, error) {
	resp, err := h.client.Post(h.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s: reading body: %w", path, err)
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

func (h *httpTarget) decide(cell int) (*decision, error) {
	b, err := h.post("/v1/decide", []byte(`{"cell":`+strconv.Itoa(cell)+`}`))
	if err != nil {
		return nil, err
	}
	return parseDecision(b, cell)
}

func (h *httpTarget) observe(cell int, delays map[string]float64) error {
	body, err := json.Marshal(struct {
		Cell   int                `json:"cell"`
		Delays map[string]float64 `json:"delays"`
	}{cell, delays})
	if err != nil {
		return err
	}
	b, err := h.post("/v1/observe", body)
	if err != nil {
		return err
	}
	var ack struct {
		Observed bool `json:"observed"`
	}
	if err := json.Unmarshal(b, &ack); err != nil || !ack.Observed {
		return fmt.Errorf("observe body %q: not an ack", b)
	}
	return nil
}

// serveTarget drives a DecisionServer in process, without HTTP.
type serveTarget struct{ srv *l4e.DecisionServer }

func (s serveTarget) decide(cell int) (*decision, error) {
	d, err := s.srv.Decide(cell, nil)
	if err != nil {
		return nil, err
	}
	return fromCell(cell, d), nil
}

func (s serveTarget) observe(cell int, delays map[string]float64) error {
	played, err := playedOf(delays)
	if err != nil {
		return err
	}
	return s.srv.Observe(cell, played, nil)
}

// op is one sent schedule entry: a decide, followed by its observe on
// workloads that send them.
type op struct {
	cell                 int
	intended, sent, done time.Time
	// lateness is how long after the connection could send (the later of
	// the due time and the end of its previous op) the send happened: the
	// generator's own delay, not the server's.
	lateness time.Duration
	dec      *decision
	err      error
	observed bool
	obsSent  time.Time
	obsDone  time.Time
	obsErr   error
}

func (o *op) latency() time.Duration    { return o.done.Sub(o.intended) }
func (o *op) obsLatency() time.Duration { return o.obsDone.Sub(o.obsSent) }

// phase is one open-loop run of a schedule.
type phase struct {
	ops    [][]op // per connection, in send order
	unsent int
	start  time.Time // schedule offset zero
	wall   time.Duration
}

// drive plays a schedule open-loop, one goroutine per connection. Each
// connection walks its entries in order; an entry due while the connection
// is still busy goes out as soon as it frees and is still timed from when it
// was due, so a stall shows as latency rather than as a lower offered rate.
// Entries not sent by the last due time plus grace are counted as unsent.
func drive(targets []target, sched [][]entry, observe bool, grace time.Duration) *phase {
	start := time.Now().Add(20 * time.Millisecond)
	var last time.Duration
	for _, s := range sched {
		if n := len(s); n > 0 && s[n-1].at > last {
			last = s[n-1].at
		}
	}
	deadline := start.Add(last + grace)
	p := &phase{ops: make([][]op, len(sched)), start: start}
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := range sched {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ops, unsent := driveConn(targets[c], sched[c], start, deadline, observe)
			mu.Lock()
			p.ops[c] = ops
			p.unsent += unsent
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

func driveConn(t target, sched []entry, start, deadline time.Time, observe bool) ([]op, int) {
	ops := make([]op, 0, len(sched))
	free := time.Now()
	for i, e := range sched {
		if free.After(deadline) {
			return ops, len(sched) - i
		}
		intended := start.Add(e.at)
		if wait := time.Until(intended); wait > 0 {
			time.Sleep(wait)
		}
		o := op{cell: e.cell, intended: intended, sent: time.Now()}
		ready := intended
		if free.After(ready) {
			ready = free
		}
		o.lateness = o.sent.Sub(ready)
		o.dec, o.err = t.decide(e.cell)
		o.done = time.Now()
		if observe && o.err == nil {
			o.observed = true
			o.obsSent = o.done
			o.obsErr = t.observe(e.cell, o.dec.PlayedDelays)
			o.obsDone = time.Now()
		}
		free = time.Now()
		ops = append(ops, o)
	}
	return ops, 0
}

// all flattens a phase's ops, connection by connection.
func (p *phase) all() []op {
	var out []op
	for _, ops := range p.ops {
		out = append(out, ops...)
	}
	return out
}

// stats summarises a phase: attempted and failed ops (decides, observes and
// unsent entries) and the decide/observe latency samples in ms.
type phaseStats struct {
	attempted, failed int
	decideMS, obsMS   []float64
	latenessMS        []float64
	firstErr          error
}

func (p *phase) stats() phaseStats {
	s := phaseStats{attempted: p.unsent, failed: p.unsent}
	for _, o := range p.all() {
		s.attempted++
		s.latenessMS = append(s.latenessMS, msOf(o.lateness))
		if o.err != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("cell %d decide: %w", o.cell, o.err)
			}
			continue
		}
		s.decideMS = append(s.decideMS, msOf(o.latency()))
		if !o.observed {
			continue
		}
		s.attempted++
		if o.obsErr != nil {
			s.failed++
			if s.firstErr == nil {
				s.firstErr = fmt.Errorf("cell %d observe: %w", o.cell, o.obsErr)
			}
			continue
		}
		s.obsMS = append(s.obsMS, msOf(o.obsLatency()))
	}
	return s
}

// served is one decision as the harness recorded it, with the feedback it
// sent back (nil when the cell auto-observed).
type served struct {
	dec      *decision
	feedback map[string]float64
}

// ledger is the harness's own record of every cell's served history, the
// reference the daemon's /v1/cells and the in-process replays must match.
type ledger struct {
	next    []int
	history [][]served
}

func newLedger(cells int) *ledger {
	return &ledger{next: make([]int, cells), history: make([][]served, cells)}
}

// record checks a phase's decisions in per-cell order: each cell's slot must
// advance by exactly one per served decide. It returns the number of ops
// that failed the check.
func (l *ledger) record(p *phase) (bad int, first error) {
	for _, ops := range p.ops {
		for _, o := range ops {
			if o.dec == nil {
				continue
			}
			if want := l.next[o.cell]; o.dec.Slot != want {
				bad++
				if first == nil {
					first = fmt.Errorf("cell %d answered slot %d, want %d", o.cell, o.dec.Slot, want)
				}
			}
			l.next[o.cell] = o.dec.Slot + 1
			s := served{dec: o.dec}
			if o.observed && o.obsErr == nil {
				s.feedback = o.dec.PlayedDelays
			}
			l.history[o.cell] = append(l.history[o.cell], s)
		}
	}
	return bad, first
}

// avgDelay is the mean served delay of a cell, summed in slot order as the
// cell itself sums it.
func (l *ledger) avgDelay(cell int) float64 {
	h := l.history[cell]
	if len(h) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range h {
		sum += s.dec.DelayMS
	}
	return sum / float64(len(h))
}

// matches compares the daemon's /v1/cells rows with the ledger, bit for bit.
func (l *ledger) matches(rows []cellRow) error {
	if len(rows) != len(l.next) {
		return fmt.Errorf("/v1/cells lists %d cells, want %d", len(rows), len(l.next))
	}
	for i, r := range rows {
		// A cell reports its next slot once the last decision is observed,
		// and the decided slot while it still awaits feedback.
		h := l.history[i]
		pending := len(h) > 0 && h[len(h)-1].feedback == nil
		want := l.next[i]
		if pending {
			want--
		}
		if r.Slot != want || r.PendingObserve != pending {
			return fmt.Errorf("/v1/cells: cell %d at slot %d (pending %v), harness recorded %d (pending %v)",
				i, r.Slot, r.PendingObserve, want, pending)
		}
		if want := l.avgDelay(i); math.Float64bits(r.AvgDelayMS) != math.Float64bits(want) {
			return fmt.Errorf("/v1/cells: cell %d avg_delay_ms %v, harness recorded %v", i, r.AvgDelayMS, want)
		}
	}
	return nil
}

// servedDelay is the mean delay over every decision in the ledger: the
// paper's objective over the served history.
func (l *ledger) servedDelay() float64 {
	var all []float64
	for _, h := range l.history {
		for _, s := range h {
			all = append(all, s.dec.DelayMS)
		}
	}
	return mean(all)
}
