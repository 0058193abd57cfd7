package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/mecsim/l4e/internal/obs"
)

// loadConfig parameterises one open-loop run against a mecd decision server.
type loadConfig struct {
	// Target is the server base URL, e.g. http://localhost:8370.
	Target string
	// Conns is the number of concurrent connections; each owns a disjoint
	// slice of the cell range (so the decide/observe pending-slot protocol
	// never races across connections) and its own latency recorders.
	Conns int
	// Rate is the total offered decision rate in requests/s, split evenly
	// across connections. The schedule is OPEN-LOOP: send times are fixed
	// up front and latency is measured against the *intended* send time,
	// so a stalled server inflates the recorded tail instead of silently
	// slowing the generator (coordinated omission).
	Rate float64
	// Dist is the inter-arrival law: "poisson" (exponential gaps) or
	// "const" (fixed 1/rate gaps).
	Dist string
	// Warmup requests (by intended time) are sent but not recorded.
	Warmup time.Duration
	// Duration is the measured phase length.
	Duration time.Duration
	// Cells is the number of cells to spread decides over; 0 discovers the
	// count from GET /v1/cells.
	Cells int
	// Observe follows every decide with a closed-loop observe on the same
	// cell (measured from its own send, as a dependent call).
	Observe bool
	// HonorRetryAfter pauses a connection's sending loop for the server's
	// Retry-After hint (with uniform jitter) after a 429. The intended
	// schedule keeps accruing, so the pause shows up honestly as lateness
	// on the backlog rather than as a lower offered rate.
	HonorRetryAfter bool
	// LateMS classifies a completed request as "late" when its intended-time
	// latency exceeds this many milliseconds.
	LateMS float64
	// Seed derives every connection's RNG (conn i uses Seed+i).
	Seed int64
}

func (c *loadConfig) validate() error {
	if c.Target == "" {
		return fmt.Errorf("mecload: empty target")
	}
	if c.Conns <= 0 {
		return fmt.Errorf("mecload: -conns %d, want >= 1", c.Conns)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("mecload: -rate %g, want > 0", c.Rate)
	}
	if c.Dist != "poisson" && c.Dist != "const" {
		return fmt.Errorf("mecload: -dist %q, want poisson or const", c.Dist)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("mecload: -duration %v, want > 0", c.Duration)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("mecload: -warmup %v, want >= 0", c.Warmup)
	}
	return nil
}

// cellStat is one cell's merged decide-latency summary.
type cellStat struct {
	Cell int             `json:"cell"`
	HDR  obs.HDRSnapshot `json:"latency_ns"`
}

// report is one load run's outcome. Latency snapshots are in nanoseconds;
// the text renderer converts to ms.
type report struct {
	Target      string  `json:"target"`
	Dist        string  `json:"dist"`
	Conns       int     `json:"conns"`
	CellCount   int     `json:"cells"`
	OfferedPerS float64 `json:"offered_per_s"`
	// AchievedPerS is completed decides per measured second.
	AchievedPerS float64 `json:"achieved_per_s"`
	WarmupS      float64 `json:"warmup_s"`
	DurationS    float64 `json:"duration_s"`
	Sent         int64   `json:"sent"`
	Completed    int64   `json:"completed"`
	Rejected     int64   `json:"rejected"`
	Errors       int64   `json:"errors"`
	Late         int64   `json:"late"`
	LateMS       float64 `json:"late_ms"`
	// Unsent counts schedule entries whose intended time fell inside the
	// run but were never issued because the wall clock passed the cutoff
	// first (a stalled server cannot shorten the offered schedule).
	Unsent int64                      `json:"unsent"`
	Routes map[string]obs.HDRSnapshot `json:"routes"`
	Cells  []cellStat                 `json:"per_cell,omitempty"`

	// routeRec holds the merged live recorders (not serialised) so tests can
	// query arbitrary quantiles.
	routeRec map[string]*obs.HDR
}

// P99MS returns the decide route's p99 in milliseconds (NaN when empty).
func (r *report) P99MS() float64 {
	h := r.routeRec["decide"]
	if h == nil || h.Count() == 0 {
		return math.NaN()
	}
	return float64(h.Quantile(99)) / 1e6
}

// connState is one connection's slice of the run.
type connState struct {
	rng      *rand.Rand
	cells    []int
	routeRec map[string]*obs.HDR
	cellRec  map[int]*obs.HDR
}

type engine struct {
	cfg    loadConfig
	client *http.Client

	measureStart time.Time
	end          time.Time

	sent      atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	errors    atomic.Int64
	late      atomic.Int64
	unsent    atomic.Int64
}

// newClient builds the shared HTTP client: one transport sized so every
// connection's keep-alive socket survives between requests (the default
// MaxIdleConnsPerHost of 2 would re-dial under any real concurrency).
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns * 2,
		MaxIdleConnsPerHost: conns * 2,
		IdleConnTimeout:     90 * time.Second,
	}}
}

// discoverCells asks the server how many cells it serves.
func discoverCells(ctx context.Context, client *http.Client, target string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, target+"/v1/cells", nil)
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("mecload: discovering cells: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("mecload: GET /v1/cells: %s", resp.Status)
	}
	var body struct {
		Cells []struct {
			Cell int `json:"cell"`
		} `json:"cells"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, err
	}
	if len(body.Cells) == 0 {
		return 0, fmt.Errorf("mecload: server reports no cells")
	}
	return len(body.Cells), nil
}

// runLoad executes one open-loop run and returns the merged report. ctx
// cancellation (SIGINT) stops the schedule early; whatever was recorded up
// to that point is still reported.
func runLoad(ctx context.Context, cfg loadConfig) (*report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	client := newClient(cfg.Conns)
	cells := cfg.Cells
	if cells <= 0 {
		n, err := discoverCells(ctx, client, cfg.Target)
		if err != nil {
			return nil, err
		}
		cells = n
	}
	if cfg.Conns > cells {
		// More conns than cells would race the pending-slot protocol.
		cfg.Conns = cells
	}

	e := &engine{cfg: cfg, client: client}
	start := time.Now()
	e.measureStart = start.Add(cfg.Warmup)
	e.end = e.measureStart.Add(cfg.Duration)

	conns := make([]*connState, cfg.Conns)
	for i := range conns {
		c := &connState{
			rng:      rand.New(rand.NewSource(cfg.Seed + int64(i))),
			routeRec: map[string]*obs.HDR{},
			cellRec:  map[int]*obs.HDR{},
		}
		for cell := i; cell < cells; cell += cfg.Conns {
			c.cells = append(c.cells, cell)
		}
		conns[i] = c
	}

	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *connState) {
			defer wg.Done()
			e.runConn(ctx, c, start)
		}(c)
	}
	wg.Wait()

	return e.buildReport(conns, cells)
}

// gap draws the next inter-arrival time for one connection.
func (e *engine) gap(rng *rand.Rand) time.Duration {
	perConn := e.cfg.Rate / float64(e.cfg.Conns)
	mean := float64(time.Second) / perConn
	if e.cfg.Dist == "poisson" {
		return time.Duration(rng.ExpFloat64() * mean)
	}
	return time.Duration(mean)
}

// runConn walks one connection's intended-time schedule. The loop is
// synchronous: a slow response delays subsequent sends, and the backlog is
// then issued back-to-back with each request still measured against its own
// intended time — the open-loop contract.
func (e *engine) runConn(ctx context.Context, c *connState, start time.Time) {
	intended := start
	for i := 0; ; i++ {
		intended = intended.Add(e.gap(c.rng))
		if intended.After(e.end) {
			return
		}
		now := time.Now()
		if now.After(e.end) {
			// Wall-clock cutoff: the rest of the schedule inside the run
			// window counts as unsent, not as a shorter run.
			e.unsent.Add(1 + e.remainingBefore(c.rng, intended))
			return
		}
		if wait := intended.Sub(now); wait > 0 {
			select {
			case <-ctx.Done():
				e.unsent.Add(1 + e.remainingBefore(c.rng, intended))
				return
			case <-time.After(wait):
			}
		}
		cell := c.cells[i%len(c.cells)]
		pause := e.doDecide(ctx, c, cell, intended)
		if e.cfg.Observe {
			e.doObserve(ctx, c, cell)
		}
		if pause > 0 {
			select {
			case <-ctx.Done():
				e.unsent.Add(e.remainingBefore(c.rng, intended))
				return
			case <-time.After(pause):
			}
		}
		if ctx.Err() != nil {
			e.unsent.Add(e.remainingBefore(c.rng, intended))
			return
		}
	}
}

// remainingBefore counts how many further schedule entries after `from`
// would still land before the cutoff (drawing from the same gap law).
func (e *engine) remainingBefore(rng *rand.Rand, from time.Time) int64 {
	var n int64
	for t := from; ; {
		t = t.Add(e.gap(rng))
		if t.After(e.end) {
			return n
		}
		n++
	}
}

func (c *connState) route(name string) *obs.HDR {
	h := c.routeRec[name]
	if h == nil {
		h = obs.NewLatencyHDR()
		c.routeRec[name] = h
	}
	return h
}

func (c *connState) cell(id int) *obs.HDR {
	h := c.cellRec[id]
	if h == nil {
		h = obs.NewLatencyHDR()
		c.cellRec[id] = h
	}
	return h
}

// doDecide issues one decide measured against its intended send time and
// returns a pause the caller should apply (Retry-After honouring), 0 for
// none.
func (e *engine) doDecide(ctx context.Context, c *connState, cell int, intended time.Time) time.Duration {
	status, retryAfter, err := e.post(ctx, "/v1/decide", cell)
	lat := time.Since(intended)
	measured := !intended.Before(e.measureStart)
	if !measured {
		return 0
	}
	e.sent.Add(1)
	switch {
	case err != nil:
		e.errors.Add(1)
	case status == http.StatusTooManyRequests:
		e.rejected.Add(1)
		if e.cfg.HonorRetryAfter && retryAfter > 0 {
			// Uniform jitter in [0.5, 1.5)·hint so paused connections
			// don't re-arrive in lockstep.
			return retryAfter/2 + time.Duration(c.rng.Int63n(int64(retryAfter)))
		}
	case status == http.StatusOK:
		e.completed.Add(1)
		if e.cfg.LateMS > 0 && lat > time.Duration(e.cfg.LateMS*float64(time.Millisecond)) {
			e.late.Add(1)
		}
		c.route("decide").Record(lat.Nanoseconds())
		c.cell(cell).Record(lat.Nanoseconds())
	default:
		e.errors.Add(1)
	}
	return 0
}

// doObserve issues the dependent observe, measured from its own send time.
func (e *engine) doObserve(ctx context.Context, c *connState, cell int) {
	sendStart := time.Now()
	status, _, err := e.post(ctx, "/v1/observe", cell)
	if sendStart.Before(e.measureStart) {
		return
	}
	if err == nil && status == http.StatusOK {
		c.route("observe").Record(time.Since(sendStart).Nanoseconds())
	}
}

// post sends one JSON request and fully drains the response so the
// keep-alive connection is reused. Returns the HTTP status and any
// Retry-After hint.
func (e *engine) post(ctx context.Context, path string, cell int) (int, time.Duration, error) {
	body, _ := json.Marshal(map[string]int{"cell": cell})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.cfg.Target+path, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()              //nolint:errcheck
	var retryAfter time.Duration
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, retryAfter, nil
}

// buildReport merges every connection's recorders exactly and assembles the
// run summary.
func (e *engine) buildReport(conns []*connState, cells int) (*report, error) {
	routes := map[string]*obs.HDR{}
	cellMerged := map[int]*obs.HDR{}
	for _, c := range conns {
		for name, h := range c.routeRec {
			m := routes[name]
			if m == nil {
				m = obs.NewLatencyHDR()
				routes[name] = m
			}
			if err := m.Merge(h); err != nil {
				return nil, err
			}
		}
		for id, h := range c.cellRec {
			m := cellMerged[id]
			if m == nil {
				m = obs.NewLatencyHDR()
				cellMerged[id] = m
			}
			if err := m.Merge(h); err != nil {
				return nil, err
			}
		}
	}

	rep := &report{
		Target:       e.cfg.Target,
		Dist:         e.cfg.Dist,
		Conns:        e.cfg.Conns,
		CellCount:    cells,
		OfferedPerS:  e.cfg.Rate,
		WarmupS:      e.cfg.Warmup.Seconds(),
		DurationS:    e.cfg.Duration.Seconds(),
		Sent:         e.sent.Load(),
		Completed:    e.completed.Load(),
		Rejected:     e.rejected.Load(),
		Errors:       e.errors.Load(),
		Late:         e.late.Load(),
		LateMS:       e.cfg.LateMS,
		Unsent:       e.unsent.Load(),
		Routes:       map[string]obs.HDRSnapshot{},
		routeRec:     routes,
		AchievedPerS: float64(e.completed.Load()) / e.cfg.Duration.Seconds(),
	}
	for name, h := range routes {
		rep.Routes[name] = h.Snapshot()
	}
	for id, h := range cellMerged {
		rep.Cells = append(rep.Cells, cellStat{Cell: id, HDR: h.Snapshot()})
	}
	sort.Slice(rep.Cells, func(i, j int) bool { return rep.Cells[i].Cell < rep.Cells[j].Cell })
	return rep, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// writeText renders the human-readable report.
func (r *report) writeText(w io.Writer) {
	fmt.Fprintf(w, "mecload: %s, %d conns x %s arrivals, offered %.1f/s over %gs (+%gs warmup), %d cells\n",
		r.Target, r.Conns, r.Dist, r.OfferedPerS, r.DurationS, r.WarmupS, r.CellCount)
	fmt.Fprintf(w, "  sent %d  completed %d  rejected %d  errors %d  late(>%gms) %d  unsent %d\n",
		r.Sent, r.Completed, r.Rejected, r.Errors, r.LateMS, r.Late, r.Unsent)
	fmt.Fprintf(w, "  achieved %.1f decisions/s\n", r.AchievedPerS)
	names := make([]string, 0, len(r.Routes))
	for name := range r.Routes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Routes[name]
		fmt.Fprintf(w, "  %-8s n=%-7d p50 %8.3fms  p90 %8.3fms  p99 %8.3fms  p99.9 %8.3fms  max %8.3fms\n",
			name, s.Count, ms(s.P50), ms(s.P90), ms(s.P99), ms(s.P999), ms(s.Max))
	}
	if len(r.Cells) > 1 {
		worst := append([]cellStat(nil), r.Cells...)
		sort.Slice(worst, func(i, j int) bool { return worst[i].HDR.P99 > worst[j].HDR.P99 })
		k := len(worst)
		if k > 5 {
			k = 5
		}
		fmt.Fprintf(w, "  worst cells by p99:")
		for _, c := range worst[:k] {
			fmt.Fprintf(w, "  cell %d %.3fms", c.Cell, ms(c.HDR.P99))
		}
		fmt.Fprintln(w)
	}
}

// writeBench emits the run as go-test benchmark lines so the output pipes
// straight into cmd/benchjson (iterations = completed requests, ns/op =
// mean intended-time latency).
func (r *report) writeBench(w io.Writer) {
	d := r.Routes["decide"]
	iters := d.Count
	if iters < 1 {
		iters = 1
	}
	rejectRate := 0.0
	if r.Sent > 0 {
		rejectRate = float64(r.Rejected) / float64(r.Sent)
	}
	fmt.Fprintf(w, "BenchmarkE2EOpenLoop %d %.0f ns/op %.1f offered_per_s %.1f decisions_per_s %.3f e2e_p50_ms %.3f e2e_p99_ms %.3f e2e_p999_ms %.4f reject_rate\n",
		iters, d.Mean, r.OfferedPerS, r.AchievedPerS, ms(d.P50), ms(d.P99), ms(d.P999), rejectRate)
}
