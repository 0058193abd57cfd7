// Command mecstat analyses flight-recorder artifacts (see README
// "Observability"): the versioned JSONL files written by mecsim -flight or
// sim.Config.Flight. It answers the questions the paper's evaluation asks of
// a finished run — is cumulative regret converging the way Theorem 1
// predicts, how do the policies' delay distributions compare, and when did
// the run degrade (faults, solver fallbacks, shed requests)?
//
//	mecstat run.flight.jsonl
//	mecstat -json run.flight.jsonl          # summary JSON on stdout
//	mecsim -flight - | mecstat -            # read the artifact from stdin
//
// With several artifacts (or a multi-run artifact), every run is analysed
// and delay percentiles are reported side by side, with an ALL row over the
// runs' concatenated per-slot delays.
//
// -spans switches to the serving-path trace written by mecd -trace: the
// request-scoped span trees are aggregated into a per-stage (queue wait /
// batch coalesce / solve-by-tier / encode) latency-decomposition table:
//
//	mecd -cells 64 -drive 50 -trace spans.jsonl
//	mecstat -spans spans.jsonl
//
// -state inspects a durable state directory written by mecd -state-dir
// without mutating it (safe against a live daemon): per cell, the snapshot
// generations on disk, which one recovery would restore from, the covered
// slot, the replayable WAL tail length, and the deterministic state digest:
//
//	mecstat -state /var/lib/mecd
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/mecsim/l4e/internal/metrics"
	"github.com/mecsim/l4e/internal/obs"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mecstat:", err)
		os.Exit(1)
	}
}

// _maxTimelineRows caps the degradation-timeline table; longer timelines are
// truncated WITH a note (a silent cap would read as "nothing else happened").
const _maxTimelineRows = 40

func run(out io.Writer, args []string) error {
	var jsonOut, spans bool
	var stateDir string
	var paths []string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-json", "--json":
			jsonOut = true
		case "-spans", "--spans":
			spans = true
		case "-state", "--state":
			i++
			if i >= len(args) {
				return fmt.Errorf("-state needs a directory argument")
			}
			stateDir = args[i]
		case "-h", "-help", "--help":
			fmt.Fprintln(out, "usage: mecstat [-json] [-spans] [-state DIR] artifact.jsonl ... ('-' reads stdin)")
			return nil
		default:
			if strings.HasPrefix(a, "-") && a != "-" {
				return fmt.Errorf("unknown flag %q (usage: mecstat [-json] [-spans] [-state DIR] artifact.jsonl ...)", a)
			}
			paths = append(paths, a)
		}
	}
	if stateDir != "" {
		return runState(out, stateDir, jsonOut)
	}
	if len(paths) == 0 {
		return fmt.Errorf("no artifacts given (usage: mecstat [-json] [-spans] [-state DIR] artifact.jsonl ..., '-' reads stdin)")
	}
	if spans {
		return runSpans(out, paths, jsonOut)
	}

	var runs []obs.FlightRun
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
		rs, err := obs.ReadFlightRuns(r)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, rs...)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no flight runs found in %s", strings.Join(paths, ", "))
	}

	analyses := make([]runAnalysis, 0, len(runs))
	for _, fr := range runs {
		a, err := analyse(fr)
		if err != nil {
			return err
		}
		analyses = append(analyses, a)
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Runs []runAnalysis `json:"runs"`
		}{analyses})
	}
	return render(out, analyses)
}

// runAnalysis is one run's digest — also the -json payload.
type runAnalysis struct {
	Policy       string `json:"policy"`
	Slots        int    `json:"slots"`
	DemandsGiven bool   `json:"demands_given"`
	Chaos        bool   `json:"chaos,omitempty"`
	Interrupted  bool   `json:"interrupted,omitempty"` // no summary record on disk

	AvgDelayMS float64            `json:"avg_delay_ms"`
	DelayPct   map[string]float64 `json:"delay_percentiles_ms"`

	CumRegretMS *float64    `json:"cum_regret_ms,omitempty"`
	RegretFit   *regretFit  `json:"regret_fit,omitempty"`
	Degradation degradation `json:"degradation"`

	// ExplorationEnd is the final slot's epsilon (bandit policies only).
	ExplorationEnd *float64 `json:"epsilon_final,omitempty"`
	// ArmsPlayed is how many stations the learner observed at least once.
	ArmsPlayed int `json:"arms_played,omitempty"`
	// PredErrMAEMean averages the per-slot volume prediction error (hidden
	// demands only).
	PredErrMAEMean *float64 `json:"pred_err_mae_mean,omitempty"`

	delays []float64 // retained for the CDF table, not serialised
}

// regretFit is the Theorem-1 convergence diagnostic: cumulative regret R(t)
// is fitted (least squares through the origin) by a*sqrt(t) and by b*t. A
// policy whose regret is sublinear — the theorem's claim for the c/t
// exploration schedule — fits the sqrt curve strictly better than the line.
type regretFit struct {
	SqrtCoef float64 `json:"sqrt_coef"` // a in R(t) ~= a*sqrt(t)
	SqrtR2   float64 `json:"sqrt_r2"`
	LinCoef  float64 `json:"lin_coef"` // b in R(t) ~= b*t
	LinR2    float64 `json:"lin_r2"`
	// TailShare is the share of total regret accumulated in the second half
	// of the horizon: exactly 0.5 for linear growth R(t) = b*t, ~0.29 for
	// a*sqrt(t), lower still for log t. A model-free cross-check of the fits.
	TailShare float64 `json:"tail_share"`
	Verdict   string  `json:"verdict"` // "sublinear", "linear", "zero", "inconclusive"
}

// degradation aggregates the run's fault and graceful-degradation record.
type degradation struct {
	DegradedSlots  int              `json:"degraded_slots"`
	FaultSlots     int              `json:"fault_slots"`
	FaultsInjected int              `json:"faults_injected"`
	FaultsByKind   map[string]int   `json:"faults_by_kind,omitempty"`
	FallbackSolves int              `json:"fallback_solves"`
	Shed           int              `json:"shed"`
	DecideFailures int              `json:"decide_failures"`
	OverloadSlots  int              `json:"overload_slots"`
	SolverTiers    map[string]int   `json:"solver_tiers,omitempty"` // slots per final ladder tier
	Segments       []timelineWindow `json:"segments,omitempty"`
}

// timelineWindow is a maximal run of consecutive eventful slots (any fault
// injected or degradation engaged).
type timelineWindow struct {
	From     int            `json:"from"`
	To       int            `json:"to"`
	Faults   int            `json:"faults,omitempty"`
	ByKind   map[string]int `json:"by_kind,omitempty"`
	Degraded int            `json:"degraded_slots,omitempty"`
	Shed     int            `json:"shed,omitempty"`
	Failures int            `json:"decide_failures,omitempty"`
}

var _pctPoints = []float64{10, 25, 50, 75, 90, 95, 99, 99.9}

// delayPercentiles computes the exact _pctPoints percentiles of delays, keyed
// "p50", "p99.9", ...
func delayPercentiles(delays []float64) (map[string]float64, error) {
	pct := make(map[string]float64, len(_pctPoints))
	for _, q := range _pctPoints {
		v, err := metrics.Percentile(delays, q)
		if err != nil {
			return nil, err
		}
		pct[fmt.Sprintf("p%g", q)] = v
	}
	return pct, nil
}

func analyse(fr obs.FlightRun) (runAnalysis, error) {
	a := runAnalysis{
		Policy:       fr.Header.Policy,
		Slots:        len(fr.Slots),
		DemandsGiven: fr.Header.DemandsGiven,
		Chaos:        fr.Header.Chaos,
		Interrupted:  fr.Summary == nil,
		Degradation: degradation{
			FaultsByKind: map[string]int{},
			SolverTiers:  map[string]int{},
		},
	}
	if len(fr.Slots) == 0 {
		return a, fmt.Errorf("run %q has a header but no slot records", fr.Header.Policy)
	}

	var cumRegret []float64
	var predSum float64
	var predN int
	for _, s := range fr.Slots {
		a.delays = append(a.delays, s.DelayMS)
		a.AvgDelayMS += s.DelayMS
		if s.CumRegretMS != nil {
			cumRegret = append(cumRegret, *s.CumRegretMS)
		}
		if s.Epsilon != nil {
			e := *s.Epsilon
			a.ExplorationEnd = &e
		}
		if s.PredErrMAE != nil {
			predSum += *s.PredErrMAE
			predN++
		}
		d := &a.Degradation
		if s.FaultsInjected > 0 {
			d.FaultSlots++
			d.FaultsInjected += s.FaultsInjected
			for k, n := range s.FaultKinds {
				d.FaultsByKind[k] += n
			}
		}
		if s.Degraded {
			d.DegradedSlots++
		}
		if s.Overload {
			d.OverloadSlots++
		}
		if s.DecideFailed {
			d.DecideFailures++
		}
		d.FallbackSolves += s.FallbackSolves
		d.Shed += s.Shed
		if s.Solver != "" {
			d.SolverTiers[s.Solver]++
		}
	}
	a.AvgDelayMS /= float64(len(fr.Slots))
	pct, err := delayPercentiles(a.delays)
	if err != nil {
		return a, fmt.Errorf("run %q: %w", a.Policy, err)
	}
	a.DelayPct = pct
	if predN > 0 {
		m := predSum / float64(predN)
		a.PredErrMAEMean = &m
	}
	if last := fr.Slots[len(fr.Slots)-1]; len(last.ArmPulls) > 0 {
		for _, n := range last.ArmPulls {
			if n > 0 {
				a.ArmsPlayed++
			}
		}
	}
	if len(cumRegret) > 0 {
		c := cumRegret[len(cumRegret)-1]
		a.CumRegretMS = &c
		a.RegretFit = fitRegret(cumRegret)
	}
	a.Degradation.Segments = timeline(fr.Slots)
	return a, nil
}

// fitRegret fits R(t) = a*sqrt(t) and R(t) = b*t through the origin by least
// squares (t is 1-based) and compares goodness of fit.
func fitRegret(cum []float64) *regretFit {
	f := &regretFit{}
	total := cum[len(cum)-1]
	if total <= 0 {
		f.Verdict = "zero"
		return f
	}
	var sxySqrt, sxxSqrt, sxyLin, sxxLin, mean float64
	for i, r := range cum {
		t := float64(i + 1)
		st := math.Sqrt(t)
		sxySqrt += r * st
		sxxSqrt += t // st*st
		sxyLin += r * t
		sxxLin += t * t
		mean += r
	}
	mean /= float64(len(cum))
	f.SqrtCoef = sxySqrt / sxxSqrt
	f.LinCoef = sxyLin / sxxLin
	var ssTot, ssSqrt, ssLin float64
	for i, r := range cum {
		t := float64(i + 1)
		ssTot += (r - mean) * (r - mean)
		dSqrt := r - f.SqrtCoef*math.Sqrt(t)
		ssSqrt += dSqrt * dSqrt
		dLin := r - f.LinCoef*t
		ssLin += dLin * dLin
	}
	if ssTot > 0 {
		f.SqrtR2 = 1 - ssSqrt/ssTot
		f.LinR2 = 1 - ssLin/ssTot
	}
	half := cum[(len(cum)-1)/2]
	f.TailShare = (total - half) / total
	switch {
	case len(cum) < 20:
		// Too short for the fits to mean anything.
		f.Verdict = "inconclusive"
	case f.SqrtR2 > f.LinR2 && f.TailShare < 0.5:
		f.Verdict = "sublinear"
	case f.LinR2 >= f.SqrtR2 && f.TailShare >= 0.45:
		f.Verdict = "linear"
	default:
		f.Verdict = "inconclusive"
	}
	return f
}

// timeline compresses the slot series into maximal eventful windows.
func timeline(slots []obs.FlightSlot) []timelineWindow {
	var out []timelineWindow
	var cur *timelineWindow
	for _, s := range slots {
		eventful := s.FaultsInjected > 0 || s.Degraded
		if !eventful {
			cur = nil
			continue
		}
		if cur == nil || s.Slot != cur.To+1 {
			out = append(out, timelineWindow{From: s.Slot, To: s.Slot})
			cur = &out[len(out)-1]
		}
		cur.To = s.Slot
		cur.Faults += s.FaultsInjected
		for k, n := range s.FaultKinds {
			if cur.ByKind == nil {
				cur.ByKind = map[string]int{}
			}
			cur.ByKind[k] += n
		}
		if s.Degraded {
			cur.Degraded++
		}
		cur.Shed += s.Shed
		if s.DecideFailed {
			cur.Failures++
		}
	}
	return out
}

func render(out io.Writer, runs []runAnalysis) error {
	// Run overview.
	fmt.Fprintf(out, "%-16s %6s %14s %12s %9s %7s %12s\n",
		"policy", "slots", "avg delay(ms)", "regret(ms)", "degraded", "faults", "convergence")
	for _, a := range runs {
		reg, conv := "-", "-"
		if a.CumRegretMS != nil {
			reg = fmt.Sprintf("%.1f", *a.CumRegretMS)
		}
		if a.RegretFit != nil {
			conv = a.RegretFit.Verdict
		}
		name := a.Policy
		if a.Interrupted {
			name += "*"
		}
		fmt.Fprintf(out, "%-16s %6d %14.3f %12s %9d %7d %12s\n",
			name, a.Slots, a.AvgDelayMS, reg, a.Degradation.DegradedSlots,
			a.Degradation.FaultsInjected, conv)
	}
	for _, a := range runs {
		if a.Interrupted {
			fmt.Fprintln(out, "* run interrupted: no summary record (slot records analysed as-is)")
			break
		}
	}

	// Regret convergence vs Theorem 1.
	if hasRegret(runs) {
		fmt.Fprintf(out, "\nregret convergence (least-squares fit of cumulative regret, Theorem 1 check):\n")
		fmt.Fprintf(out, "%-16s %12s %8s %12s %8s %10s %12s\n",
			"policy", "a*sqrt(t)", "R2", "b*t", "R2", "tail", "verdict")
		for _, a := range runs {
			if a.RegretFit == nil {
				continue
			}
			f := a.RegretFit
			fmt.Fprintf(out, "%-16s %12.3f %8.4f %12.3f %8.4f %9.0f%% %12s\n",
				a.Policy, f.SqrtCoef, f.SqrtR2, f.LinCoef, f.LinR2, 100*f.TailShare, f.Verdict)
		}
		fmt.Fprintln(out, "(sublinear: sqrt fit beats linear and the last half adds < 50% of total regret,\n consistent with Theorem 1's o(T) bound; linear: regret still accumulating at a constant rate)")
	}

	// Exact delay percentiles, policies side by side; with several runs an
	// ALL row covers their concatenated per-slot delays.
	fmt.Fprintf(out, "\ndelay distribution (per-slot average delay, ms):\n")
	fmt.Fprintf(out, "%-16s", "policy")
	for _, q := range _pctPoints {
		fmt.Fprintf(out, " %8s", fmt.Sprintf("p%g", q))
	}
	fmt.Fprintf(out, " %8s\n", "max")
	row := func(name string, pct map[string]float64, delays []float64) {
		fmt.Fprintf(out, "%-16s", name)
		for _, q := range _pctPoints {
			fmt.Fprintf(out, " %8.3f", pct[fmt.Sprintf("p%g", q)])
		}
		maxD := 0.0
		for _, d := range delays {
			if d > maxD {
				maxD = d
			}
		}
		fmt.Fprintf(out, " %8.3f\n", maxD)
	}
	var all []float64
	for _, a := range runs {
		row(a.Policy, a.DelayPct, a.delays)
		all = append(all, a.delays...)
	}
	if len(runs) > 1 {
		pct, err := delayPercentiles(all)
		if err != nil {
			return err
		}
		row("ALL", pct, all)
	}

	// Degradation timeline.
	for _, a := range runs {
		segs := a.Degradation.Segments
		if len(segs) == 0 {
			continue
		}
		fmt.Fprintf(out, "\ndegradation timeline — %s (%d eventful windows):\n", a.Policy, len(segs))
		fmt.Fprintf(out, "%-12s %7s %9s %6s %9s  %s\n", "slots", "faults", "degraded", "shed", "failures", "kinds")
		shown := segs
		if len(shown) > _maxTimelineRows {
			shown = shown[:_maxTimelineRows]
		}
		for _, w := range shown {
			span := fmt.Sprintf("%d", w.From)
			if w.To != w.From {
				span = fmt.Sprintf("%d-%d", w.From, w.To)
			}
			fmt.Fprintf(out, "%-12s %7d %9d %6d %9d  %s\n",
				span, w.Faults, w.Degraded, w.Shed, w.Failures, kindList(w.ByKind))
		}
		if len(segs) > len(shown) {
			fmt.Fprintf(out, "... %d more windows (use -json for the full timeline)\n", len(segs)-len(shown))
		}
		if tiers := kindList(a.Degradation.SolverTiers); tiers != "" {
			fmt.Fprintf(out, "solver tiers over the run: %s\n", tiers)
		}
	}
	return nil
}

func hasRegret(runs []runAnalysis) bool {
	for _, a := range runs {
		if a.RegretFit != nil {
			return true
		}
	}
	return false
}

// kindList renders a count map deterministically: "kind=3 other=1".
func kindList(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, m[k]))
	}
	return strings.Join(parts, " ")
}
