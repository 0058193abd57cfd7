// Command mecsim runs the paper's experiments and ad-hoc policy comparisons.
//
// Reproduce a figure (prints the series the paper plots):
//
//	mecsim -fig 3 -repeats 3 -slots 100
//	mecsim -fig 6 -csv            # CSV output for plotting
//
// Ad-hoc comparison:
//
//	mecsim -compare OL_GD,Greedy_GD,Pri_GD -stations 100 -slots 100
//	mecsim -compare OL_GAN,OL_Reg -hidden -topology as1755
//
// Chaos engineering (see README "Robustness & fault injection"): inject
// composable faults and watch policies degrade instead of abort:
//
//	mecsim -compare OL_GD,Greedy_GD -chaos "regional:0.05:3,feedback:0.1"
//	mecsim -chaos "blackout:20:2,spike:0.1:4" -solve-budget 200
//
// Observability (see README "Observability"): per-slot JSONL trace spans,
// a named-metrics snapshot, a machine-readable run summary, and pprof:
//
//	mecsim -trace /tmp/trace.jsonl -metrics-out /tmp/metrics.json
//	mecsim -compare OL_GAN,OL_Reg -hidden -summary-json - -sample-runtime
//	mecsim -fig 3 -pprof localhost:6060 -cpuprofile /tmp/cpu.pprof
//
// Live telemetry and the flight recorder (analyse with mecstat):
//
//	mecsim -compare OL_GD,Greedy_GD -telemetry-addr localhost:9090
//	mecsim -compare OL_GD,Greedy_GD -regret -flight /tmp/run.flight.jsonl
//	mecstat /tmp/run.flight.jsonl
//
// All observability sinks are flushed on SIGINT/SIGTERM, so interrupting a
// long run still leaves analysable artifacts.
//
// Observability flags without a mode flag run the quickstart comparison
// (OL_GD vs Greedy_GD vs Pri_GD) as the instrumented workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"

	"strings"

	"github.com/mecsim/l4e"
	"github.com/mecsim/l4e/internal/metrics"
	"github.com/mecsim/l4e/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "mecsim:", err)
		os.Exit(1)
	}
}

// cleanupStack runs registered finalisers exactly once — on normal exit AND
// on SIGINT/SIGTERM — so trace spans, metric snapshots, and flight records
// buffered in memory reach disk even when a long run is interrupted.
type cleanupStack struct {
	mu   sync.Mutex
	once sync.Once
	fns  []func()
}

// push registers a finaliser; finalisers run in reverse registration order
// (like defers: close files after flushing the writers layered on them).
func (c *cleanupStack) push(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

// run executes all finalisers once.
func (c *cleanupStack) run() {
	c.once.Do(func() {
		c.mu.Lock()
		fns := c.fns
		c.fns = nil
		c.mu.Unlock()
		for i := len(fns) - 1; i >= 0; i-- {
			fns[i]()
		}
	})
}

// notifyOnSignals flushes the stack and exits on SIGINT/SIGTERM. The
// returned stop func detaches the handler (normal-exit path).
func (c *cleanupStack) notifyOnSignals() (stop func()) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		select {
		case sig := <-ch:
			fmt.Fprintf(os.Stderr, "mecsim: %v: flushing observability sinks\n", sig)
			c.run()
			os.Exit(1)
		case <-done:
		}
	}()
	return func() { signal.Stop(ch); close(done) }
}

func run(args []string) error {
	fs := flag.NewFlagSet("mecsim", flag.ContinueOnError)
	var (
		fig         = fs.Int("fig", 0, "reproduce paper figure N (3-7)")
		repeats     = fs.Int("repeats", 3, "topology draws averaged per data point (paper: 80)")
		slots       = fs.Int("slots", 100, "time slots per run")
		seed        = fs.Int64("seed", 1, "base random seed")
		smooth      = fs.Int("smooth", 5, "moving-average window for per-slot series")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		parallel    = fs.Bool("parallel", false, "run topology repeats concurrently (distorts runtime panels)")
		compare     = fs.String("compare", "", "comma-separated policy names for an ad-hoc comparison")
		stations    = fs.Int("stations", 100, "GT-ITM network size for -compare")
		topo        = fs.String("topology", "gt-itm", "topology for -compare: gt-itm or as1755")
		hidden      = fs.Bool("hidden", false, "hide bursty demands from policies (Figs. 6-7 setting)")
		regret      = fs.Bool("regret", false, "track regret against a shadow oracle (-compare only)")
		exportTrace = fs.String("export-trace", "", "write the scenario's demand trace to a CSV file and exit")
		list        = fs.Bool("list", false, "list known policies and figures")

		chaos       = fs.String("chaos", "", `fault-injection spec for -compare, e.g. "regional:0.05:3,feedback:0.1" (see README)`)
		chaosSeed   = fs.Int64("chaos-seed", 0, "seed for chaos injectors (0 = derive from -seed)")
		solveBudget = fs.Int("solve-budget", 0, "simplex iteration cap per slot solve (0 = unlimited); exhausted solves degrade to fallbacks")

		tracePath   = fs.String("trace", "", "write per-slot JSONL trace spans to this file")
		metricsOut  = fs.String("metrics-out", "", "write the final metrics snapshot (JSON) to this file")
		summaryJSON = fs.String("summary-json", "", `write a run summary (config + results + metrics) to this file ("-" = stdout)`)
		sampleRT    = fs.Bool("sample-runtime", false, "record per-slot heap/GC/goroutine gauges (briefly stops the world each slot)")
		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
		heapProfile = fs.String("heapprofile", "", "write a heap profile at exit to this file")

		telemetryAddr = fs.String("telemetry-addr", "", "serve live telemetry on this address: /metrics (Prometheus), /snapshot (JSON), /events (SSE)")
		flightPath    = fs.String("flight", "", "write the per-slot flight-recorder artifact (JSONL, see mecstat) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Observability sinks buffer in memory; flush them on SIGINT/SIGTERM too,
	// so an interrupted run still leaves analysable artifacts on disk.
	cleanups := &cleanupStack{}
	defer cleanups.run()
	stopSignals := cleanups.notifyOnSignals()
	defer stopSignals()

	if *pprofAddr != "" {
		srv, url, err := obs.StartPprofServer(*pprofAddr)
		if err != nil {
			return err
		}
		cleanups.push(func() { srv.Close() })
		fmt.Fprintf(os.Stderr, "mecsim: pprof listening at %s\n", url)
	}
	if *cpuProfile != "" {
		stopCPU, err := obs.StartCPUProfile(*cpuProfile)
		if err != nil {
			return err
		}
		cleanups.push(func() {
			if err := stopCPU(); err != nil {
				fmt.Fprintln(os.Stderr, "mecsim: stopping CPU profile:", err)
			}
		})
	}

	// Build the observer when any observability sink is requested. The trace
	// file is created up front so a bad path fails before simulating.
	wantObs := *tracePath != "" || *metricsOut != "" || *summaryJSON != "" || *sampleRT || *telemetryAddr != ""
	var observer *l4e.Observer
	if wantObs {
		var tw io.Writer
		if *tracePath != "" {
			f, err := os.Create(*tracePath)
			if err != nil {
				return err
			}
			cleanups.push(func() { f.Close() })
			tw = f
		}
		observer = l4e.NewObserver(l4e.ObserverOptions{TraceWriter: tw, SampleRuntime: *sampleRT})
		cleanups.push(func() {
			if err := observer.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "mecsim: flushing trace:", err)
			}
		})
	}
	if *telemetryAddr != "" {
		ts, err := l4e.ServeTelemetry(*telemetryAddr, observer)
		if err != nil {
			return err
		}
		cleanups.push(func() { ts.Close() })
		fmt.Fprintf(os.Stderr, "mecsim: telemetry at %s (/metrics /snapshot /events)\n", ts.URL())
	}
	var flight *l4e.FlightRecorder
	if *flightPath != "" {
		f, err := os.Create(*flightPath)
		if err != nil {
			return err
		}
		cleanups.push(func() { f.Close() })
		flight = l4e.NewFlightRecorder(f)
		cleanups.push(func() {
			if err := flight.Flush(); err != nil {
				fmt.Fprintln(os.Stderr, "mecsim: flushing flight recorder:", err)
			}
		})
	}

	// Human-readable tables move to stderr when the JSON summary claims
	// stdout, keeping `-summary-json -` pipeable.
	tableOut := io.Writer(os.Stdout)
	if *summaryJSON == "-" {
		tableOut = os.Stderr
	}

	var results []*l4e.Result
	var runErr error
	switch {
	case *exportTrace != "":
		return runExportTrace(*exportTrace, *stations, *topo, *slots, *seed)
	case *list:
		fmt.Println("policies:", strings.Join(l4e.PolicyNames(), ", "))
		fmt.Println("figures: fig3 fig4 fig5 fig6 fig7")
		return nil
	case *fig != 0:
		if flight != nil {
			return fmt.Errorf("-flight records -compare runs, not figure sweeps (figures aggregate over topology repeats)")
		}
		runErr = runFigure(*fig, l4e.ExperimentConfig{
			Repeats: *repeats, Slots: *slots, Seed: *seed, SmoothWindow: *smooth,
			Parallel: *parallel, Observer: observer,
		}, *csv)
	case *compare != "" || *chaos != "":
		names := *compare
		if names == "" {
			// -chaos alone stress-tests the quickstart comparison.
			names = "OL_GD,Greedy_GD,Pri_GD"
		}
		results, runErr = runCompare(tableOut, names, compareOpts{
			stations: *stations, topo: *topo, slots: *slots, seed: *seed,
			hidden: *hidden, regret: *regret, observer: observer, flight: flight,
			chaos: *chaos, chaosSeed: *chaosSeed, solveBudget: *solveBudget,
		})
	case wantObs || flight != nil:
		// Observability flags alone instrument the quickstart comparison.
		results, runErr = runCompare(tableOut, "OL_GD,Greedy_GD,Pri_GD", compareOpts{
			stations: *stations, topo: *topo, slots: *slots, seed: *seed,
			hidden: *hidden, regret: *regret, observer: observer, flight: flight,
			solveBudget: *solveBudget,
		})
	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -fig N, -compare A,B, or -list")
	}
	if runErr != nil {
		return runErr
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, observer); err != nil {
			return err
		}
	}
	if *summaryJSON != "" {
		cfg := summaryConfig{
			Stations: *stations, Topology: *topo, Slots: *slots, Seed: *seed,
			DemandsGiven: !*hidden, Regret: *regret, Figure: *fig, Compare: *compare,
			Chaos: *chaos, ChaosSeed: *chaosSeed, SolveBudget: *solveBudget,
		}
		if err := writeSummary(*summaryJSON, cfg, results, observer); err != nil {
			return err
		}
	}
	if *heapProfile != "" {
		if err := obs.WriteHeapProfile(*heapProfile); err != nil {
			return err
		}
	}
	return nil
}

// summaryConfig echoes the run's effective settings into -summary-json.
type summaryConfig struct {
	Stations     int    `json:"stations"`
	Topology     string `json:"topology"`
	Slots        int    `json:"slots"`
	Seed         int64  `json:"seed"`
	DemandsGiven bool   `json:"demands_given"`
	Regret       bool   `json:"regret"`
	Figure       int    `json:"figure,omitempty"`
	Compare      string `json:"compare,omitempty"`
	Chaos        string `json:"chaos,omitempty"`
	ChaosSeed    int64  `json:"chaos_seed,omitempty"`
	SolveBudget  int    `json:"solve_budget,omitempty"`
}

// summaryResult is one policy's outcome in -summary-json.
type summaryResult struct {
	Policy             string   `json:"policy"`
	AvgDelayMS         float64  `json:"avg_delay_ms"`
	TotalRuntimeMS     float64  `json:"total_runtime_ms"`
	OverloadSlots      int      `json:"overload_slots"`
	FailedStationSlots int      `json:"failed_station_slots,omitempty"`
	DegradedSlots      int      `json:"degraded_slots,omitempty"`
	FallbackSolves     int      `json:"fallback_solves,omitempty"`
	RepairViolations   int      `json:"repair_violations,omitempty"`
	DecideFailures     int      `json:"decide_failures,omitempty"`
	FaultsInjected     int      `json:"faults_injected,omitempty"`
	CumulativeRegretMS *float64 `json:"cumulative_regret_ms,omitempty"`
}

func writeMetrics(path string, observer *l4e.Observer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	snap := observer.Snapshot()
	if err := snap.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeSummary(path string, cfg summaryConfig, results []*l4e.Result, observer *l4e.Observer) error {
	summary := struct {
		Config  summaryConfig        `json:"config"`
		Results []summaryResult      `json:"results,omitempty"`
		Metrics *l4e.MetricsSnapshot `json:"metrics,omitempty"`
	}{Config: cfg}
	for _, r := range results {
		sr := summaryResult{
			Policy:             r.Policy,
			AvgDelayMS:         r.AvgDelayMS,
			TotalRuntimeMS:     r.TotalRuntimeMS,
			OverloadSlots:      r.OverloadSlots,
			FailedStationSlots: r.FailedStationSlots,
			DegradedSlots:      r.DegradedSlots,
			FallbackSolves:     r.FallbackSolves,
			RepairViolations:   r.RepairViolations,
			DecideFailures:     r.DecideFailures,
			FaultsInjected:     r.FaultsInjected,
		}
		if r.Regret != nil {
			c := r.Regret.Cumulative()
			sr.CumulativeRegretMS = &c
		}
		summary.Results = append(summary.Results, sr)
	}
	if observer != nil {
		snap := observer.Snapshot()
		summary.Metrics = &snap
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(out)
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// runExportTrace writes the scenario's workload trace as CSV for archiving
// or substitution with a real measured trace.
func runExportTrace(path string, stations int, topoName string, slots int, seed int64) error {
	opts := []l4e.ScenarioOption{l4e.WithStations(stations), l4e.WithSeed(seed), l4e.WithSlots(slots)}
	if topoName == "as1755" {
		opts = append(opts, l4e.WithTopology(l4e.TopologyAS1755))
	}
	s, err := l4e.NewScenario(opts...)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := s.Workload.WriteTraceCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %d-slot trace for %d requests to %s\n",
		s.Workload.Config.Horizon, len(s.Workload.Requests), path)
	return nil
}

func runFigure(n int, cfg l4e.ExperimentConfig, csv bool) error {
	key := fmt.Sprintf("fig%d", n)
	runner, ok := l4e.Figures()[key]
	if !ok {
		return fmt.Errorf("unknown figure %d (have 3-7)", n)
	}
	res, err := runner(cfg)
	if err != nil {
		return err
	}
	for _, tab := range res.Tables {
		var out string
		if csv {
			out, err = tab.CSV()
		} else {
			out, err = tab.Render()
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}

// compareOpts bundles the scenario knobs for runCompare.
type compareOpts struct {
	stations    int
	topo        string
	slots       int
	seed        int64
	hidden      bool
	regret      bool
	observer    *l4e.Observer
	flight      *l4e.FlightRecorder
	chaos       string
	chaosSeed   int64
	solveBudget int
}

func runCompare(out io.Writer, names string, o compareOpts) ([]*l4e.Result, error) {
	opts := []l4e.ScenarioOption{
		l4e.WithStations(o.stations),
		l4e.WithSeed(o.seed),
		l4e.WithSlots(o.slots),
		l4e.WithDemandsGiven(!o.hidden),
		l4e.WithObserver(o.observer),
		l4e.WithFlightRecorder(o.flight),
		l4e.WithChaos(o.chaos),
		l4e.WithChaosSeed(o.chaosSeed),
		l4e.WithSolveBudget(o.solveBudget),
	}
	switch o.topo {
	case "gt-itm":
		opts = append(opts, l4e.WithTopology(l4e.TopologyGTITM))
	case "as1755":
		opts = append(opts, l4e.WithTopology(l4e.TopologyAS1755), l4e.WithAccessLatency(true))
	default:
		return nil, fmt.Errorf("unknown topology %q", o.topo)
	}
	s, err := l4e.NewScenario(opts...)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "network %s: %d stations; %d requests, %d services, %d slots; demands %s\n",
		s.Net.Name, s.Net.NumStations(), len(s.Workload.Requests), len(s.Workload.Services),
		o.slots, map[bool]string{true: "hidden", false: "given"}[o.hidden])
	if o.chaos != "" {
		fmt.Fprintf(out, "chaos: %s\n", o.chaos)
	}
	fmt.Fprintf(out, "%-16s %14s %16s %14s %9s %9s %10s\n",
		"policy", "avg delay(ms)", "total runtime(ms)", "overload slots", "degraded", "fallbacks", "regret")
	var results []*l4e.Result
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		p, err := s.NewPolicy(name)
		if err != nil {
			return nil, err
		}
		var res *l4e.Result
		if o.regret {
			res, err = s.RunWithRegret(p)
		} else {
			res, err = s.Run(p)
		}
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		reg := "-"
		if res.Regret != nil {
			reg = fmt.Sprintf("%.1f", res.Regret.Cumulative())
		}
		fmt.Fprintf(out, "%-16s %14.3f %16.1f %14d %9d %9d %10s\n",
			res.Policy, res.AvgDelayMS, res.TotalRuntimeMS, res.OverloadSlots,
			res.DegradedSlots, res.FallbackSolves, reg)
	}
	// Significance of the first policy's per-slot delay advantage over each
	// competitor (Welch's t-test over the paired slot series).
	if len(results) > 1 {
		fmt.Fprintln(out)
		for _, other := range results[1:] {
			tStat, pVal, err := metrics.WelchTTest(results[0].PerSlotDelayMS, other.PerSlotDelayMS)
			if err != nil {
				return nil, err
			}
			verdict := "not significant"
			if pVal < 0.05 {
				if tStat < 0 {
					verdict = "significantly LOWER"
				} else {
					verdict = "significantly HIGHER"
				}
			}
			fmt.Fprintf(out, "%s vs %s: t=%.2f p=%.4f (%s delay, alpha=0.05)\n",
				results[0].Policy, other.Policy, tStat, pVal, verdict)
		}
	}
	return results, nil
}
