package l4e

// Figure benches: each benchmark regenerates one panel of the paper's
// evaluation (Figs. 3-7) and reports the headline numbers as custom metrics
// (policy average delay in ms, runtime ratios). The full series tables the
// paper plots are printed by `go run ./cmd/mecsim -fig N`; the benches run
// the identical code path (Figure3..Figure7) so `go test -bench=.` is a
// one-shot reproduction of the whole evaluation.
//
// Benches use Repeats=1 to keep a full -bench=. run in minutes; the paper
// averages 80 topology draws per point. Raise via cmd/mecsim -repeats for
// publication-quality curves.

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/metrics"
	"github.com/mecsim/l4e/internal/obs"
)

// benchCfg is the shared experiment configuration for figure benches.
func benchCfg() ExperimentConfig {
	return ExperimentConfig{Repeats: 1, Slots: 100, Seed: 1, SmoothWindow: 1}
}

// reportSeriesMeans reports the mean of each series of a panel as a custom
// benchmark metric (ms).
func reportSeriesMeans(b *testing.B, tab *Table, suffix string) {
	b.Helper()
	for _, s := range tab.Series {
		sum := metrics.Summarize(s.Values)
		b.ReportMetric(sum.Mean, s.Label+suffix)
	}
}

func runFigureBench(b *testing.B, fig func(ExperimentConfig) (*FigureResult, error), panel int, suffix string) {
	b.Helper()
	var res *FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = fig(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	reportSeriesMeans(b, res.Tables[panel], suffix)
}

// BenchmarkFig3AvgDelay regenerates Fig. 3(a): per-slot average delay of
// OL_GD vs Greedy_GD vs Pri_GD in a 100-station GT-ITM network.
// Expected shape: OL_GD lowest after its learning phase, Greedy_GD highest.
func BenchmarkFig3AvgDelay(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure3, 0, "_delay_ms")
}

// BenchmarkFig3RunningTime regenerates Fig. 3(b): per-slot running time.
// Expected shape: OL_GD costs more than the baselines but stays in tens of
// milliseconds per slot.
func BenchmarkFig3RunningTime(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure3, 1, "_runtime_ms")
}

// BenchmarkFig4AvgDelay regenerates Fig. 4(a): average delay vs network size
// (50-200 stations). Expected shape: OL_GD's margin grows with size; at the
// smallest size the solution space is small and the gap narrows.
func BenchmarkFig4AvgDelay(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure4, 0, "_delay_ms")
}

// BenchmarkFig4RunningTime regenerates Fig. 4(b): running time vs size.
// Expected shape: OL_GD grows fastest but remains tractable at 200 stations.
func BenchmarkFig4RunningTime(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure4, 1, "_runtime_ms")
}

// BenchmarkFig5AvgDelay regenerates Fig. 5(a): average delay on the real
// topology AS1755 with access latency. Expected shape: same ordering as
// Fig. 3 with an ENLARGED gap (bottleneck links hurt the static baselines).
func BenchmarkFig5AvgDelay(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure5, 0, "_delay_ms")
}

// BenchmarkFig5RunningTime regenerates Fig. 5(b).
func BenchmarkFig5RunningTime(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure5, 1, "_runtime_ms")
}

// BenchmarkFig6AvgDelay regenerates Fig. 6(a): OL_GAN vs OL_Reg with hidden
// demands. Expected shape: OL_GAN below OL_Reg after its warmup/training.
func BenchmarkFig6AvgDelay(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure6, 0, "_delay_ms")
}

// BenchmarkFig6RunningTime regenerates Fig. 6(b). Expected shape: OL_GAN's
// running time is a multiple of OL_Reg's (paper reports ~400%).
func BenchmarkFig6RunningTime(b *testing.B) {
	b.ReportAllocs()
	var res *FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = Figure6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
	}
	tab := res.Tables[1]
	reportSeriesMeans(b, tab, "_runtime_ms")
	gan := metrics.Summarize(tab.Series[0].Values).Mean
	reg := metrics.Summarize(tab.Series[1].Values).Mean
	if reg > 0 {
		b.ReportMetric(gan/reg, "OLGAN_over_OLReg_runtime_ratio")
	}
}

// BenchmarkFig7AS1755 regenerates Fig. 7(a): OL_GAN vs OL_Reg on AS1755.
func BenchmarkFig7AS1755(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure7, 0, "_delay_ms")
}

// BenchmarkFig7Scaling regenerates Fig. 7(b): OL_GAN vs OL_Reg with network
// size varied 50-300. Expected shape: OL_GAN below OL_Reg throughout.
func BenchmarkFig7Scaling(b *testing.B) {
	b.ReportAllocs()
	runFigureBench(b, Figure7, 2, "_delay_ms")
}

// --- Ablation benches (beyond the paper's figures) ---

// BenchmarkRegretBound measures OL_GD's empirical cumulative regret against
// the per-slot oracle and evaluates the Theorem 1 upper bound with the
// scenario's actual delay extrema; reports both so the bound can be checked
// (empirical << bound, and regret grows sublinearly).
func BenchmarkRegretBound(b *testing.B) {
	b.ReportAllocs()
	var empirical, bound, firstHalf, secondHalf float64
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(50), WithSeed(3))
		if err != nil {
			b.Fatal(err)
		}
		p, err := s.NewPolicy("OL_GD")
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.RunWithRegret(p)
		if err != nil {
			b.Fatal(err)
		}
		empirical = res.Regret.Cumulative()
		per := res.Regret.PerSlot()
		firstHalf, secondHalf = 0, 0
		for j, v := range per {
			if j < len(per)/2 {
				firstHalf += v
			} else {
				secondHalf += v
			}
		}
		// Theorem 1 bound with the scenario's delay extrema (femto min 5,
		// remote-free max 50) and the per-request gap of Lemma 1.
		sigma := bandit.LemmaOneGap(len(s.Workload.Requests), 50, 5, 0.1, 10)
		bnd, err := bandit.TheoremOneBound(sigma, 0.25, 100)
		if err != nil {
			b.Fatal(err)
		}
		bound = bnd
	}
	b.ReportMetric(empirical, "empirical_regret_ms")
	b.ReportMetric(bound, "theorem1_bound_ms")
	b.ReportMetric(firstHalf, "first_half_regret_ms")
	b.ReportMetric(secondHalf, "second_half_regret_ms")
}

// BenchmarkGammaSweep ablates the candidate-set threshold gamma of Eq. (9):
// reports converged average delay per gamma value.
func BenchmarkGammaSweep(b *testing.B) {
	b.ReportAllocs()
	gammas := []float64{0.01, 0.1, 0.3, 0.6}
	results := make([]float64, len(gammas))
	for i := 0; i < b.N; i++ {
		for gi, gamma := range gammas {
			s, err := NewScenario(WithStations(50), WithSeed(4))
			if err != nil {
				b.Fatal(err)
			}
			cfg := algorithms.DefaultOLGDConfig(s.Net.NumStations())
			cfg.Gamma = gamma
			cfg.OptimisticPrior = 5
			p, err := algorithms.NewOLGD(cfg)
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(p)
			if err != nil {
				b.Fatal(err)
			}
			tail := res.PerSlotDelayMS[50:]
			total := 0.0
			for _, d := range tail {
				total += d
			}
			results[gi] = total / float64(len(tail))
		}
	}
	for gi, gamma := range gammas {
		b.ReportMetric(results[gi], fmt.Sprintf("gamma_%g_delay_ms", gamma))
	}
}

// BenchmarkScheduleAblation compares the decaying c/t schedule (Theorem 1)
// with the constant 1/4 of Algorithm 1's pseudo-code, plus the UCB and
// Thompson index variants.
func BenchmarkScheduleAblation(b *testing.B) {
	b.ReportAllocs()
	names := []string{"OL_GD", "OL_GD/const-eps", "OL_GD/UCB", "OL_GD/Thompson", "OL_GD/ls"}
	delays := make([]float64, len(names))
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(50), WithSeed(5))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.Compare(names...)
		if err != nil {
			b.Fatal(err)
		}
		for ni, res := range results {
			delays[ni] = res.AvgDelayMS
		}
	}
	for ni, name := range names {
		metric := strings.ReplaceAll(name, "/", "_") + "_delay_ms"
		b.ReportMetric(delays[ni], metric)
	}
}

// BenchmarkAdaptiveBaselines quantifies how much of OL_GD's edge survives
// when the baselines passively update their delay estimates (ablation of the
// "static historical information" assumption).
func BenchmarkAdaptiveBaselines(b *testing.B) {
	b.ReportAllocs()
	names := []string{"OL_GD", "Greedy_GD", "Greedy_GD/adaptive", "Pri_GD", "Pri_GD/adaptive"}
	delays := make([]float64, len(names))
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(50), WithSeed(6))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.Compare(names...)
		if err != nil {
			b.Fatal(err)
		}
		for ni, res := range results {
			delays[ni] = res.AvgDelayMS
		}
	}
	for ni, name := range names {
		metric := strings.ReplaceAll(name, "/", "_") + "_delay_ms"
		b.ReportMetric(delays[ni], metric)
	}
}

// BenchmarkOracleGap reports the converged OL_GD delay relative to the
// clairvoyant oracle — the price of learning.
func BenchmarkOracleGap(b *testing.B) {
	b.ReportAllocs()
	var ol, oracle float64
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(50), WithSeed(7))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.Compare("OL_GD", "Oracle")
		if err != nil {
			b.Fatal(err)
		}
		tailMean := func(r *Result) float64 {
			tail := r.PerSlotDelayMS[50:]
			total := 0.0
			for _, d := range tail {
				total += d
			}
			return total / float64(len(tail))
		}
		ol, oracle = tailMean(results[0]), tailMean(results[1])
	}
	b.ReportMetric(ol, "OL_GD_converged_ms")
	b.ReportMetric(oracle, "Oracle_ms")
	if oracle > 0 && !math.IsNaN(ol) {
		b.ReportMetric(ol/oracle, "learning_price_ratio")
	}
}

// BenchmarkWarmCacheAblation compares the paper's literal per-slot
// instantiation charge (objective 3) with warm-cache accounting where
// instances surviving between slots are free — quantifying how much of the
// average delay is re-instantiation.
func BenchmarkWarmCacheAblation(b *testing.B) {
	b.ReportAllocs()
	var cold, warm float64
	for i := 0; i < b.N; i++ {
		for _, mode := range []bool{false, true} {
			s, err := NewScenario(WithStations(50), WithSeed(8), WithWarmCache(mode))
			if err != nil {
				b.Fatal(err)
			}
			p, err := s.NewPolicy("OL_GD")
			if err != nil {
				b.Fatal(err)
			}
			res, err := s.Run(p)
			if err != nil {
				b.Fatal(err)
			}
			if mode {
				warm = res.AvgDelayMS
			} else {
				cold = res.AvgDelayMS
			}
		}
	}
	b.ReportMetric(cold, "cold_cache_delay_ms")
	b.ReportMetric(warm, "warm_cache_delay_ms")
}

// BenchmarkFailureRobustness injects i.i.d. station outages (2% per station
// per slot, 5 slots down) and measures how the learning policy degrades
// versus the static baselines (robustness extension beyond the paper's
// evaluation). The chaos seed 9+6910 gives the outage injector seed 9+7919
// (faults.Parse adds 1009 for the first injector), so its figures stay
// comparable with earlier benchmark snapshots.
func BenchmarkFailureRobustness(b *testing.B) {
	b.ReportAllocs()
	names := []string{"OL_GD", "Greedy_GD", "Pri_GD"}
	delays := make([]float64, len(names))
	var failedSlots int
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(50), WithSeed(9),
			WithChaos("outage:0.02:5"), WithChaosSeed(9+6910))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.Compare(names...)
		if err != nil {
			b.Fatal(err)
		}
		for ni, res := range results {
			delays[ni] = res.AvgDelayMS
			failedSlots = res.FailedStationSlots
		}
	}
	for ni, name := range names {
		b.ReportMetric(delays[ni], name+"_delay_ms")
	}
	b.ReportMetric(float64(failedSlots), "failed_station_slots")
}

// BenchmarkScheduledEvents compares OL_GAN vs OL_Reg when bursts are
// calendar-driven (scheduled flash crowds with occupancy foreshadowing) —
// the regime where hidden-feature prediction has its largest edge.
func BenchmarkScheduledEvents(b *testing.B) {
	b.ReportAllocs()
	var gan, reg float64
	for i := 0; i < b.N; i++ {
		s, err := NewScenario(WithStations(60), WithSeed(10),
			WithDemandsGiven(false), WithScheduledEvents(16))
		if err != nil {
			b.Fatal(err)
		}
		results, err := s.Compare("OL_GAN", "OL_Reg")
		if err != nil {
			b.Fatal(err)
		}
		// Post-warmup means.
		tailMean := func(r *Result) float64 {
			tail := r.PerSlotDelayMS[30:]
			total := 0.0
			for _, d := range tail {
				total += d
			}
			return total / float64(len(tail))
		}
		gan, reg = tailMean(results[0]), tailMean(results[1])
	}
	b.ReportMetric(gan, "OL_GAN_postwarmup_ms")
	b.ReportMetric(reg, "OL_Reg_postwarmup_ms")
}

// --- Observability benches ---

// BenchmarkObserverNopHooks measures the disabled-observer hook cost. A nil
// *Observer is the default, and every hook is nil-safe: the whole per-slot
// instrumentation sweep below (two counters, a histogram, a gauge, and the
// trace guard) must collapse to a handful of pointer tests — low single-digit
// nanoseconds, i.e. far below 2% of even the cheapest policy's per-slot
// decide time (microseconds).
func BenchmarkObserverNopHooks(b *testing.B) {
	b.ReportAllocs()
	var o *obs.Observer // disabled: the default state
	for i := 0; i < b.N; i++ {
		o.Inc("sim.slots")
		o.Add("bandit.observations", 3)
		o.Observe("sim.decide_ms", 1.0)
		o.Set("bandit.epsilon", 0.25)
		if o.TraceEnabled() {
			o.Emit(obs.Event{Slot: i, Name: "slot"})
		}
	}
}

// BenchmarkObserverSimOverhead runs the identical small scenario with the
// observer disabled (nil, the default) and enabled (metrics + runtime
// sampling, no tracer), reporting avg delay to confirm the paired runs see
// the same environment. The "disabled" timing IS the uninstrumented cost —
// the disabled path was verified bit-identical to the pre-instrumentation
// build — so the enabled/disabled delta is the full observability price.
func BenchmarkObserverSimOverhead(b *testing.B) {
	b.ReportAllocs()
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var avg float64
			for i := 0; i < b.N; i++ {
				var o *Observer
				if mode == "enabled" {
					o = NewObserver(ObserverOptions{SampleRuntime: true})
				}
				s, err := NewScenario(WithStations(50), WithSeed(12), WithSlots(40), WithObserver(o))
				if err != nil {
					b.Fatal(err)
				}
				p, err := s.NewPolicy("Greedy_GD")
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				avg = res.AvgDelayMS
			}
			b.ReportMetric(avg, "avg_delay_ms")
		})
	}
}
