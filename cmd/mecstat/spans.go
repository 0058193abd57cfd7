package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/mecsim/l4e/internal/metrics"
	"github.com/mecsim/l4e/internal/obs"
)

// runSpans is mecstat's -spans mode: it reads the request-scoped span trees
// mecd -trace records (one root "req" span per request plus ingest /
// queue_wait / batch_wait / solve / reply / encode children sharing its trace
// ID) and prints a per-stage latency-decomposition table — where each
// millisecond of the end-to-end serving latency actually goes, per route and
// per solver tier.
func runSpans(out io.Writer, paths []string, jsonOut bool) error {
	var events []obs.Event
	for _, p := range paths {
		var r io.Reader
		if p == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(p)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		evs, err := obs.DecodeEvents(r)
		if err != nil {
			// A process killed before its buffered trace writer flushed leaves
			// one torn trailing line. The events before it are good data —
			// analyse them and say so, like the flight reader's interrupted
			// runs. Anything else (mid-file corruption) still fails loudly.
			if err == io.ErrUnexpectedEOF && len(evs) > 0 {
				fmt.Fprintf(out, "note: %s: trailing line truncated (unflushed writer?); analysing the %d events before it\n", p, len(evs))
			} else {
				return fmt.Errorf("%s: %w", p, err)
			}
		}
		events = append(events, evs...)
	}
	routes := analyseSpans(events)
	if len(routes) == 0 {
		return fmt.Errorf("no span events found in %s (record them with mecd -trace)", strings.Join(paths, ", "))
	}
	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Routes []spanRouteAnalysis `json:"routes"`
		}{routes})
	}
	renderSpans(out, routes)
	return nil
}

// spanStageStats is one stage's (or tier's) latency digest.
type spanStageStats struct {
	Stage   string  `json:"stage"`
	Count   int     `json:"count"`
	MeanMS  float64 `json:"mean_ms"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P99MS   float64 `json:"p99_ms"`
	TotalMS float64 `json:"total_ms"`
	// Share is this stage's fraction of the route's total end-to-end time.
	Share float64 `json:"share"`
}

// spanRouteAnalysis decomposes one route's requests by stage.
type spanRouteAnalysis struct {
	Route    string           `json:"route"`
	Requests int              `json:"requests"`
	E2E      spanStageStats   `json:"e2e"`
	Stages   []spanStageStats `json:"stages"`
	// SolveByTier splits the solve stage by degradation-ladder tier.
	SolveByTier []spanStageStats `json:"solve_by_tier,omitempty"`
	// SolveByMode splits the solve stage by incremental mode (cold / warm),
	// showing how often warm starts actually fire end-to-end.
	SolveByMode []spanStageStats `json:"solve_by_mode,omitempty"`
	// Coverage is sum(stage totals)/e2e total: how much of the end-to-end
	// latency the recorded stages attribute (the remainder is channel and
	// scheduler overhead between stages).
	Coverage float64 `json:"coverage"`
}

// _stageOrder is the serving pipeline's stage order for rendering.
var _stageOrder = []string{"ingest", "queue_wait", "batch_wait", "solve", "reply", "encode"}

type spanAccum struct {
	e2e    []float64
	stages map[string][]float64
	tiers  map[string][]float64
	modes  map[string][]float64
}

func analyseSpans(events []obs.Event) []spanRouteAnalysis {
	byRoute := map[string]*spanAccum{}
	for _, ev := range events {
		if ev.Name != "span" {
			continue
		}
		dur, ok := ev.Fields["dur_ms"].(float64)
		if !ok {
			continue
		}
		route, _ := ev.Fields["route"].(string)
		if route == "" {
			route = "?"
		}
		acc := byRoute[route]
		if acc == nil {
			acc = &spanAccum{stages: map[string][]float64{}, tiers: map[string][]float64{}, modes: map[string][]float64{}}
			byRoute[route] = acc
		}
		if ev.Span == "req" { // root span: the end-to-end measurement
			acc.e2e = append(acc.e2e, dur)
			continue
		}
		acc.stages[ev.Span] = append(acc.stages[ev.Span], dur)
		if ev.Span == "solve" {
			if tier, _ := ev.Fields["tier"].(string); tier != "" {
				acc.tiers[tier] = append(acc.tiers[tier], dur)
			}
			// "observe" mode carries no information beyond the tier of the
			// same name; only decide-path modes are worth a breakdown.
			if mode, _ := ev.Fields["mode"].(string); mode != "" && mode != "observe" {
				acc.modes[mode] = append(acc.modes[mode], dur)
			}
		}
	}

	routes := make([]string, 0, len(byRoute))
	for r := range byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	var out []spanRouteAnalysis
	for _, r := range routes {
		acc := byRoute[r]
		a := spanRouteAnalysis{Route: r, Requests: len(acc.e2e)}
		a.E2E = stageStats("e2e", acc.e2e, 0)
		e2eTotal := a.E2E.TotalMS
		var attributed float64
		for _, st := range _stageOrder {
			if vals := acc.stages[st]; len(vals) > 0 {
				s := stageStats(st, vals, e2eTotal)
				attributed += s.TotalMS
				a.Stages = append(a.Stages, s)
			}
		}
		// Unknown stage names (future producers) still show up.
		var extra []string
		for st := range acc.stages {
			if !containsStage(_stageOrder, st) {
				extra = append(extra, st)
			}
		}
		sort.Strings(extra)
		for _, st := range extra {
			s := stageStats(st, acc.stages[st], e2eTotal)
			attributed += s.TotalMS
			a.Stages = append(a.Stages, s)
		}
		tiers := make([]string, 0, len(acc.tiers))
		for t := range acc.tiers {
			tiers = append(tiers, t)
		}
		sort.Strings(tiers)
		for _, t := range tiers {
			a.SolveByTier = append(a.SolveByTier, stageStats(t, acc.tiers[t], e2eTotal))
		}
		for _, m := range []string{"cold", "warm"} {
			if vals := acc.modes[m]; len(vals) > 0 {
				a.SolveByMode = append(a.SolveByMode, stageStats(m, vals, e2eTotal))
			}
		}
		if e2eTotal > 0 {
			a.Coverage = attributed / e2eTotal
		}
		out = append(out, a)
	}
	return out
}

func containsStage(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func stageStats(name string, vals []float64, e2eTotal float64) spanStageStats {
	s := spanStageStats{Stage: name, Count: len(vals)}
	for _, v := range vals {
		s.TotalMS += v
	}
	if len(vals) > 0 {
		s.MeanMS = s.TotalMS / float64(len(vals))
		s.P50MS, _ = metrics.Percentile(vals, 50)
		s.P90MS, _ = metrics.Percentile(vals, 90)
		s.P99MS, _ = metrics.Percentile(vals, 99)
	}
	if e2eTotal > 0 {
		s.Share = s.TotalMS / e2eTotal
	}
	return s
}

func renderSpans(out io.Writer, routes []spanRouteAnalysis) {
	for _, a := range routes {
		fmt.Fprintf(out, "latency decomposition — route %s (%d requests):\n", a.Route, a.Requests)
		fmt.Fprintf(out, "%-12s %8s %10s %10s %10s %10s %7s\n",
			"stage", "count", "mean(ms)", "p50", "p90", "p99", "share")
		for _, s := range a.Stages {
			fmt.Fprintf(out, "%-12s %8d %10.4f %10.4f %10.4f %10.4f %6.1f%%\n",
				s.Stage, s.Count, s.MeanMS, s.P50MS, s.P90MS, s.P99MS, 100*s.Share)
		}
		e := a.E2E
		fmt.Fprintf(out, "%-12s %8d %10.4f %10.4f %10.4f %10.4f %7s\n",
			"e2e", e.Count, e.MeanMS, e.P50MS, e.P90MS, e.P99MS, "-")
		if len(a.SolveByTier) > 0 {
			parts := make([]string, 0, len(a.SolveByTier))
			for _, t := range a.SolveByTier {
				parts = append(parts, fmt.Sprintf("%s n=%d mean=%.4fms", t.Stage, t.Count, t.MeanMS))
			}
			fmt.Fprintf(out, "solve by tier: %s\n", strings.Join(parts, ", "))
		}
		if len(a.SolveByMode) > 0 {
			var solves int
			for _, m := range a.SolveByMode {
				solves += m.Count
			}
			parts := make([]string, 0, len(a.SolveByMode))
			for _, m := range a.SolveByMode {
				parts = append(parts, fmt.Sprintf("%s n=%d (%.1f%%) mean=%.4fms",
					m.Stage, m.Count, 100*float64(m.Count)/float64(solves), m.MeanMS))
			}
			fmt.Fprintf(out, "solve by mode: %s\n", strings.Join(parts, ", "))
		}
		fmt.Fprintf(out, "stages attribute %.1f%% of end-to-end latency (rest: inter-stage scheduling)\n\n",
			100*a.Coverage)
	}
}
