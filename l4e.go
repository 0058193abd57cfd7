// Package l4e ("Learning for Exception") reproduces the ICDCS 2020 paper
// "Learning for Exception: Dynamic Service Caching in 5G-Enabled MECs with
// Bursty User Demands" (Xu et al.) as a self-contained Go library.
//
// The package is the public facade: it builds experiment scenarios (network
// topology + bursty workload + simulation settings), constructs the paper's
// policies by name, and runs paired comparisons. The building blocks live in
// internal packages (lp, flow, caching, bandit, nn, gan, forecast,
// algorithms, sim, ...) and are re-exported here where a downstream user
// needs to touch them.
//
// Quickstart:
//
//	s, err := l4e.NewScenario(l4e.WithStations(100), l4e.WithSeed(1))
//	results, err := s.Compare("OL_GD", "Greedy_GD", "Pri_GD")
//	for _, r := range results {
//		fmt.Printf("%-10s %.2f ms\n", r.Policy, r.AvgDelayMS)
//	}
package l4e

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/bandit"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/serve"
	"github.com/mecsim/l4e/internal/sim"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// Re-exported types: these are the objects a library user holds.
type (
	// Network is the 5G heterogeneous MEC network G = (BS, E).
	Network = mec.Network
	// Workload is a generated request set with its bursty demand trace.
	Workload = workload.Workload
	// WorkloadConfig parameterises workload generation.
	WorkloadConfig = workload.Config
	// Policy is a per-slot caching/offloading decision maker.
	Policy = algorithms.Policy
	// Result is one policy's simulation outcome.
	Result = sim.Result
	// Observer collects runtime metrics and per-slot trace spans. A nil
	// Observer disables all instrumentation at the cost of one pointer test
	// per hook — simulation results are bit-identical either way.
	Observer = obs.Observer
	// ObserverOptions configures NewObserver.
	ObserverOptions = obs.Options
	// MetricsSnapshot is a frozen view of an observer's metric series.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one JSONL trace span.
	TraceEvent = obs.Event
	// Label is one metric label pair (see L).
	Label = obs.Label
	// FlightRecorder writes the per-slot JSONL flight artifact analysed by
	// cmd/mecstat. A nil recorder disables recording.
	FlightRecorder = obs.FlightRecorder
	// FlightRun is one decoded flight-artifact run (header, slots, summary).
	FlightRun = obs.FlightRun
	// TelemetryServer serves live observer state over HTTP (see ServeTelemetry).
	TelemetryServer = obs.TelemetryServer
	// Cell is a step-wise decision engine for one MEC cell: Decide plays one
	// slot, Observe feeds delay/volume feedback into the learner. Build one
	// with Scenario.NewCell; a pool of cells is what the mecd daemon serves.
	Cell = sim.Cell
	// CellDecision is the outcome of one Cell.Decide step.
	CellDecision = sim.CellDecision
	// CellStatus is a point-in-time view of a cell's progress.
	CellStatus = sim.CellStatus
	// DecisionServer multiplexes decide/observe traffic over a pool of cells
	// through a sharded worker pool with per-shard batching and bounded-queue
	// backpressure (see NewDecisionServer and cmd/mecd).
	DecisionServer = serve.Server
	// DecisionServerConfig parameterises NewDecisionServer.
	DecisionServerConfig = serve.Config
	// DecisionCellInfo is one cell's status row in DecisionServer.Cells.
	DecisionCellInfo = serve.CellInfo
	// DriveConfig parameterises DecisionServer.Drive, the programmatic
	// closed-loop load path (mecd -drive) with Retry-After-grounded,
	// jittered backpressure retries.
	DriveConfig = serve.DriveConfig
	// DriveSummary is a Drive run's outcome (decisions, retries, throughput).
	DriveSummary = serve.DriveSummary
	// SLOTracker is a rolling-window SLO monitor for the serving path: attach
	// one via DecisionServerConfig.SLO and the daemon feeds it every request's
	// end-to-end latency and outcome; /slo serves its report and /healthz
	// becomes readiness-aware (see NewSLOTracker).
	SLOTracker = obs.SLOTracker
	// SLOConfig parameterises NewSLOTracker (latency/error objectives,
	// burn-rate windows and thresholds). The zero value is usable.
	SLOConfig = obs.SLOConfig
	// SLOReport is an SLOTracker's current view: per-window burn rates plus
	// the condensed ok/degraded/overloaded state.
	SLOReport = obs.SLOReport
)

// SLO health states reported by SLOTracker.Report and mecd's /healthz.
const (
	SLOStateOK         = obs.SLOStateOK
	SLOStateDegraded   = obs.SLOStateDegraded
	SLOStateOverloaded = obs.SLOStateOverloaded
)

// NewSLOTracker builds a rolling-window SLO tracker for the decision server
// (see SLOConfig; every field of the zero value gets a serving default).
func NewSLOTracker(cfg SLOConfig) *SLOTracker { return obs.NewSLOTracker(cfg) }

// Decision-server sentinel errors, re-exported so daemon clients (and
// cmd/mecd's self-drive loop) can branch on backpressure vs shutdown.
var (
	// ErrServerBusy reports a full shard queue: the request was rejected,
	// not queued. Retry after a short backoff (HTTP 429 + Retry-After).
	ErrServerBusy = serve.ErrQueueFull
	// ErrServerDraining reports a server mid-shutdown (HTTP 503).
	ErrServerDraining = serve.ErrDraining
	// ErrServerRecovering reports a server still replaying durable state
	// after a restart (HTTP 503 + Retry-After). Retry shortly; /healthz
	// flips from "recovering" to ok when replay completes.
	ErrServerRecovering = serve.ErrRecovering
	// ErrNoPendingObserve reports an Observe with no prior Decide (HTTP 409).
	ErrNoPendingObserve = sim.ErrNoPendingObserve
)

// L builds a label list for the observer's labeled metric methods:
// o.IncL("bandit.pulls", l4e.L("arm", "bs3")...).
func L(kv ...string) []Label { return obs.L(kv...) }

// NewFlightRecorder wraps w in a buffered flight recorder; attach it with
// WithFlightRecorder (or Scenario.Flight) and Flush when done. ReadFlightRuns
// parses the artifact back.
func NewFlightRecorder(w io.Writer) *FlightRecorder { return obs.NewFlightRecorder(w) }

// ReadFlightRuns parses a flight-recorder artifact (see NewFlightRecorder).
func ReadFlightRuns(r io.Reader) ([]FlightRun, error) { return obs.ReadFlightRuns(r) }

// ServeTelemetry starts the live telemetry HTTP server for an observer:
// /metrics (Prometheus text), /snapshot (JSON), /events (SSE). Addr ":0"
// picks a free port; Close the returned server when done.
func ServeTelemetry(addr string, o *Observer) (*TelemetryServer, error) {
	return obs.ServeTelemetry(addr, o)
}

// NewObserver builds an enabled observer. Pass it to a scenario with
// WithObserver (or set Scenario.Observer) to instrument simulation runs:
//
//	var buf bytes.Buffer
//	o := l4e.NewObserver(l4e.ObserverOptions{TraceWriter: &buf})
//	s, _ := l4e.NewScenario(l4e.WithObserver(o))
//	s.Compare("OL_GD", "Greedy_GD")
//	snap := o.Snapshot() // named metric series
//	// buf now holds one JSON object per trace event
func NewObserver(opts ObserverOptions) *Observer { return obs.New(opts) }

// Topology selects the network generator.
type Topology int

// Supported topologies.
const (
	// TopologyGTITM is the synthetic GT-ITM-style random topology of the
	// paper's Section VI-A (pairwise connection probability 0.1).
	TopologyGTITM Topology = iota + 1
	// TopologyAS1755 is the embedded AS1755-like real ISP topology (87
	// nodes, 161 links, bottleneck links between regions).
	TopologyAS1755
)

// String implements fmt.Stringer.
func (t Topology) String() string {
	switch t {
	case TopologyGTITM:
		return "gt-itm"
	case TopologyAS1755:
		return "as1755"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// Scenario is a fully constructed experiment environment.
type Scenario struct {
	Net      *Network
	Workload *Workload
	// DemandsGiven exposes true volumes to policies (Figs. 3-5 setting).
	DemandsGiven bool
	// UseAccessLatency includes wired-path latency in costs (recommended on
	// AS1755, where bottleneck links matter).
	UseAccessLatency bool
	// Seed drives environment randomness.
	Seed int64
	// Slots caps the simulated horizon (0 = full workload horizon).
	Slots int
	// WarmCache switches instantiation accounting to warm-cache mode.
	WarmCache bool
	// FailureRate and FailureSlots configure station failure injection.
	FailureRate  float64
	FailureSlots int
	// Chaos is a fault-injection spec (see WithChaos for the grammar). Empty
	// means no injected faults beyond FailureRate.
	Chaos string
	// ChaosSeed seeds the chaos injectors independently of the environment
	// (0 = derive from Seed). The same ChaosSeed replays the same faults.
	ChaosSeed int64
	// SolveBudget caps simplex iterations per slot solve (0 = unlimited);
	// exhausted solves degrade down the fallback ladder instead of failing.
	SolveBudget int
	// Observer instruments simulation runs (nil disables).
	Observer *Observer
	// Flight records per-slot flight-recorder entries for post-hoc analysis
	// with cmd/mecstat (nil disables).
	Flight *FlightRecorder
}

type scenarioConfig struct {
	topo         Topology
	stations     int
	seed         int64
	demandsGiven bool
	useLatency   bool
	warmCache    bool
	failureRate  float64
	failureSlots int
	chaos        string
	chaosSeed    int64
	solveBudget  int
	remoteDC     bool
	events       int
	slots        int
	wcfg         WorkloadConfig
	wcfgSet      bool
	observer     *Observer
	flight       *FlightRecorder
}

// ScenarioOption customises NewScenario.
type ScenarioOption func(*scenarioConfig)

// WithTopology selects the network generator (default GT-ITM).
func WithTopology(t Topology) ScenarioOption {
	return func(c *scenarioConfig) { c.topo = t }
}

// WithStations sets the GT-ITM network size (ignored for AS1755, which is
// fixed at 87 nodes). Default 100.
func WithStations(n int) ScenarioOption {
	return func(c *scenarioConfig) { c.stations = n }
}

// WithSeed sets the scenario seed (topology attributes, workload trace, and
// per-slot delay draws all derive from it). Default 1.
func WithSeed(seed int64) ScenarioOption {
	return func(c *scenarioConfig) { c.seed = seed }
}

// WithDemandsGiven controls whether policies see true volumes (default
// true, the Figs. 3-5 setting; pass false for the Figs. 6-7 setting).
func WithDemandsGiven(given bool) ScenarioOption {
	return func(c *scenarioConfig) { c.demandsGiven = given }
}

// WithAccessLatency toggles the known wired-path latency cost term.
func WithAccessLatency(use bool) ScenarioOption {
	return func(c *scenarioConfig) { c.useLatency = use }
}

// WithSlots caps the simulated horizon.
func WithSlots(slots int) ScenarioOption {
	return func(c *scenarioConfig) { c.slots = slots }
}

// WithScheduledEvents replaces the workload's Markov burst regime with n
// randomly scheduled calendar events (flash crowds with known windows, e.g.
// exhibit openings). Occupancy foreshadows each event, so feature-aware
// prediction can anticipate the bursts that volume-history models lag.
func WithScheduledEvents(n int) ScenarioOption {
	return func(c *scenarioConfig) { c.events = n }
}

// WithWarmCache charges instantiation only for newly cached instances
// (instances surviving from the previous slot stay warm) instead of the
// paper's literal per-slot objective (3).
func WithWarmCache(on bool) ScenarioOption {
	return func(c *scenarioConfig) { c.warmCache = on }
}

// WithFailures injects station failures: each healthy station fails with the
// given per-slot probability and stays down for the given number of slots.
func WithFailures(rate float64, slots int) ScenarioOption {
	return func(c *scenarioConfig) { c.failureRate = rate; c.failureSlots = slots }
}

// WithChaos attaches a composable fault-injection schedule, described by a
// comma-separated spec of injectors:
//
//	outage:RATE[:DOWN]           independent station outages
//	regional:RATE[:DOWN]         correlated whole-region (macro-cell) outages
//	brownout:RATE[:FACTOR[:DOWN]] capacity reduced to FACTOR (0,1)
//	spike:RATE[:FACTOR[:DOWN]]   network delay multiplied by FACTOR (>1)
//	feedback:DROP[:CORRUPT]      bandit feedback dropped / corrupted to NaN
//	surge:RATE[:FACTOR[:DOWN]]   demand volumes multiplied by FACTOR (>1)
//	blackout:AT[:DOWN]           every station down at slot AT
//
// Example: "regional:0.05:3,feedback:0.1" — regional outages at rate 0.05
// lasting 3 slots, plus 10% feedback loss. Injector randomness is private
// (seeded by WithChaosSeed), so an empty spec is bit-identical to no chaos
// and two policies compared under one scenario face identical faults.
func WithChaos(spec string) ScenarioOption {
	return func(c *scenarioConfig) { c.chaos = spec }
}

// WithChaosSeed seeds the chaos injectors (default: derived from the
// scenario seed). Vary it to sample different fault realisations over the
// same environment.
func WithChaosSeed(seed int64) ScenarioOption {
	return func(c *scenarioConfig) { c.chaosSeed = seed }
}

// WithSolveBudget caps simplex iterations per slot solve. Exhausted or
// infeasible solves fall down the degradation ladder (exact LP → min-cost
// flow → greedy shedding) instead of aborting the horizon; Result records
// the descent in FallbackSolves/DegradedSlots.
func WithSolveBudget(iters int) ScenarioOption {
	return func(c *scenarioConfig) { c.solveBudget = iters }
}

// WithRemoteDC appends the remote data center of the paper's architecture
// as an always-available fallback tier: effectively unlimited capacity,
// unit-data delay in [50, 100] ms, services pre-deployed (no instantiation).
func WithRemoteDC() ScenarioOption {
	return func(c *scenarioConfig) { c.remoteDC = true }
}

// WithObserver attaches an observability sink to the scenario's simulation
// runs (see NewObserver). The default is nil: no instrumentation.
func WithObserver(o *Observer) ScenarioOption {
	return func(c *scenarioConfig) { c.observer = o }
}

// WithFlightRecorder attaches a flight recorder to the scenario's simulation
// runs (see NewFlightRecorder). The default is nil: no recording.
func WithFlightRecorder(fr *FlightRecorder) ScenarioOption {
	return func(c *scenarioConfig) { c.flight = fr }
}

// WithWorkloadConfig overrides the workload configuration entirely.
func WithWorkloadConfig(cfg WorkloadConfig) ScenarioOption {
	return func(c *scenarioConfig) { c.wcfg = cfg; c.wcfgSet = true }
}

// NewScenario builds a scenario. Defaults: GT-ITM topology with 100
// stations, the default workload (60 requests, 8 services, 100 slots,
// cluster-correlated bursts), demands given, seed 1.
func NewScenario(opts ...ScenarioOption) (*Scenario, error) {
	cfg := scenarioConfig{
		topo:         TopologyGTITM,
		stations:     100,
		seed:         1,
		demandsGiven: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	var (
		net *Network
		err error
	)
	switch cfg.topo {
	case TopologyGTITM:
		net, err = topology.GTITM(cfg.stations, cfg.seed)
	case TopologyAS1755:
		net, err = topology.AS1755(cfg.seed)
	default:
		return nil, fmt.Errorf("l4e: unknown topology %d", int(cfg.topo))
	}
	if err != nil {
		return nil, fmt.Errorf("l4e: building topology: %w", err)
	}
	if cfg.remoteDC {
		if err := addRemoteDC(net, cfg.seed); err != nil {
			return nil, fmt.Errorf("l4e: adding remote DC: %w", err)
		}
	}
	wcfg := cfg.wcfg
	if !cfg.wcfgSet {
		wcfg = workload.DefaultConfig()
	}
	w, err := workload.Generate(net, wcfg, cfg.seed+1000)
	if err != nil {
		return nil, fmt.Errorf("l4e: generating workload: %w", err)
	}
	if cfg.events > 0 {
		events, err := workload.RandomEvents(wcfg, cfg.events, cfg.seed+2000)
		if err != nil {
			return nil, fmt.Errorf("l4e: scheduling events: %w", err)
		}
		if err := w.ApplyEvents(events, cfg.seed+3000); err != nil {
			return nil, fmt.Errorf("l4e: applying events: %w", err)
		}
	}
	scn := &Scenario{
		Net:              net,
		Workload:         w,
		DemandsGiven:     cfg.demandsGiven,
		UseAccessLatency: cfg.useLatency,
		Seed:             cfg.seed,
		Slots:            cfg.slots,
		WarmCache:        cfg.warmCache,
		FailureRate:      cfg.failureRate,
		FailureSlots:     cfg.failureSlots,
		Chaos:            cfg.chaos,
		ChaosSeed:        cfg.chaosSeed,
		SolveBudget:      cfg.solveBudget,
		Observer:         cfg.observer,
		Flight:           cfg.flight,
	}
	// Validate the chaos spec at construction time so a typo fails here, not
	// on the first Run.
	if _, err := scn.faultSchedule(); err != nil {
		return nil, err
	}
	if cfg.remoteDC {
		// The DC's services are pre-deployed: zero instantiation delay.
		dc := net.NumStations() - 1
		for k := range w.InstDelayMS[dc] {
			w.InstDelayMS[dc][k] = 0
		}
	}
	return scn, nil
}

// addRemoteDC appends a remote data center node linked to every macro
// station over high-latency core links.
func addRemoteDC(net *Network, seed int64) error {
	rng := rand.New(rand.NewSource(seed + 7))
	dc := net.AddStation(mec.NewStation(mec.RemoteDC, -1e6, -1e6, mec.DefaultParams(mec.RemoteDC), rng))
	linked := false
	for i := range net.Stations {
		if net.Stations[i].Class == mec.Macro {
			if err := net.AddLink(dc, i, 20+rng.Float64()*10, 10000); err != nil {
				return err
			}
			linked = true
		}
	}
	if !linked {
		return fmt.Errorf("no macro stations to uplink the remote DC")
	}
	return nil
}

// PolicyNames lists the policies NewPolicy accepts. The first six are the
// paper's algorithms; the rest are ablation variants.
func PolicyNames() []string {
	return []string{
		"OL_GD", "Greedy_GD", "Pri_GD", "OL_Reg", "OL_GAN", "Oracle",
		"OL_GD/UCB", "OL_GD/Thompson", "OL_GD/const-eps", "OL_GD/ls",
		"OL_GD/fresh-solve",
		"Greedy_GD/adaptive", "Pri_GD/adaptive",
	}
}

// classMinPriors returns each station's known class-minimum delay — the
// optimistic per-arm prior OL_GD starts from (Lemma 1 assumes the delay
// extrema are known a priori).
func classMinPriors(net *Network) []float64 {
	out := make([]float64, net.NumStations())
	for i := range net.Stations {
		out[i] = mec.DefaultParams(net.Stations[i].Class).UnitDelayMin
	}
	return out
}

// historicalEstimates returns the static per-station latency estimates the
// baselines act on: the midpoint of each station class's delay range — the
// "historical information of processing latencies" an operator has on file,
// which ignores both the per-station spread and the per-slot variation.
func historicalEstimates(net *Network) []float64 {
	out := make([]float64, net.NumStations())
	for i := range net.Stations {
		p := mec.DefaultParams(net.Stations[i].Class)
		out[i] = (p.UnitDelayMin + p.UnitDelayMax) / 2
	}
	return out
}

// NewPolicy constructs a policy by its paper name, wired to this scenario's
// network and workload.
func (s *Scenario) NewPolicy(name string) (Policy, error) {
	n := s.Net.NumStations()
	basics := make([]float64, len(s.Workload.Requests))
	clusters := make([]int, len(s.Workload.Requests))
	xy := make([][2]float64, len(s.Workload.Requests))
	for l, r := range s.Workload.Requests {
		basics[l] = r.BasicDemand
		clusters[l] = r.Cluster
		xy[l] = [2]float64{r.X, r.Y}
	}
	// Optimistic per-arm priors at each station's class minimum.
	priors := classMinPriors(s.Net)
	const prior = 5.0
	switch name {
	case "OL_GD":
		cfg := algorithms.DefaultOLGDConfig(n)
		cfg.Seed = s.Seed
		cfg.Priors = priors
		return algorithms.NewOLGD(cfg)
	case "OL_GD/ls":
		cfg := algorithms.DefaultOLGDConfig(n)
		cfg.Seed = s.Seed
		cfg.Priors = priors
		cfg.LocalSearch = true
		cfg.Name = "OL_GD/ls"
		return algorithms.NewOLGD(cfg)
	case "OL_GD/const-eps":
		cfg := algorithms.DefaultOLGDConfig(n)
		cfg.Seed = s.Seed
		cfg.Priors = priors
		cfg.Name = "OL_GD/const-eps"
		cfg.Schedule = bandit.ConstantSchedule{Value: 0.25}
		p, err := algorithms.NewOLGD(cfg)
		if err != nil {
			return nil, err
		}
		return p, nil
	case "OL_GD/fresh-solve":
		// OL_GD without the per-policy solver workspace: every slot allocates
		// its solver state from scratch and solves cold. The reference the
		// warm-started OL_GD is tested against.
		cfg := algorithms.DefaultOLGDConfig(n)
		cfg.Seed = s.Seed
		cfg.Priors = priors
		cfg.Name = "OL_GD/fresh-solve"
		cfg.FreshSolves = true
		return algorithms.NewOLGD(cfg)
	case "Greedy_GD":
		return algorithms.NewGreedyGD(historicalEstimates(s.Net), false)
	case "Greedy_GD/adaptive":
		return algorithms.NewGreedyGD(historicalEstimates(s.Net), true)
	case "Pri_GD":
		return algorithms.NewPriGD(s.Net, xy, historicalEstimates(s.Net), false)
	case "Pri_GD/adaptive":
		return algorithms.NewPriGD(s.Net, xy, historicalEstimates(s.Net), true)
	case "OL_Reg":
		cfg := algorithms.DefaultOLGDConfig(n)
		cfg.Seed = s.Seed
		cfg.Priors = priors
		return algorithms.NewOLReg(cfg, 4, basics)
	case "OL_GAN":
		cfg := algorithms.DefaultOLGANConfig(n, s.Workload.Config.NumClusters)
		cfg.OLGD.Seed = s.Seed
		cfg.OLGD.Priors = priors
		cfg.GAN.Seed = s.Seed
		return algorithms.NewOLGAN(cfg, basics, clusters)
	case "Oracle":
		return algorithms.NewOracle(), nil
	case "OL_GD/UCB":
		return algorithms.NewIndexOLGD(algorithms.IndexUCB, n, prior, s.Seed)
	case "OL_GD/Thompson":
		return algorithms.NewIndexOLGD(algorithms.IndexThompson, n, prior, s.Seed)
	default:
		return nil, fmt.Errorf("l4e: unknown policy %q (known: %v)", name, PolicyNames())
	}
}

// faultSchedule parses the scenario's chaos spec into an injector schedule
// (nil when the spec is empty).
func (s *Scenario) faultSchedule() (*faults.Schedule, error) {
	if s.Chaos == "" {
		return nil, nil
	}
	seed := s.ChaosSeed
	if seed == 0 {
		seed = s.Seed + 4000
	}
	sched, err := faults.Parse(s.Chaos, s.Net, seed)
	if err != nil {
		return nil, fmt.Errorf("l4e: chaos spec: %w", err)
	}
	return sched, nil
}

// runner builds the simulator for this scenario.
func (s *Scenario) runner(trackRegret bool) (*sim.Runner, error) {
	sched, err := s.faultSchedule()
	if err != nil {
		return nil, err
	}
	return sim.NewRunner(s.Net, s.Workload, sim.Config{
		Seed:             s.Seed,
		DemandsGiven:     s.DemandsGiven,
		TrackRegret:      trackRegret,
		Slots:            s.Slots,
		UseAccessLatency: s.UseAccessLatency,
		WarmCache:        s.WarmCache,
		FailureRate:      s.FailureRate,
		FailureSlots:     s.FailureSlots,
		Faults:           sched,
		SolveBudget:      s.SolveBudget,
		Observer:         s.Observer,
		Flight:           s.Flight,
	})
}

// NewCell builds a step-wise decision cell over this scenario's environment,
// driving the named policy slot by slot: Decide plays the next slot (a nil
// demand vector replays the generated trace; a non-nil one overrides it) and
// Observe feeds delay feedback into the policy's learner. Unlike Run, a cell
// does not stop at the workload horizon — slots wrap around the trace — so it
// can back a long-running serving process. Each call builds an independent
// cell (own RNG, bandit state, fault schedule, solver workspaces); a pool of
// cells from per-cell scenarios is what NewDecisionServer shards.
func (s *Scenario) NewCell(policyName string) (*Cell, error) {
	p, err := s.NewPolicy(policyName)
	if err != nil {
		return nil, err
	}
	r, err := s.runner(false)
	if err != nil {
		return nil, err
	}
	return r.NewCell(p)
}

// NewDecisionServer builds the sharded multi-cell decision daemon over a
// pool of cells (see cmd/mecd): decide/observe traffic is partitioned across
// a worker pool (cell i → shard i mod Shards), coalesced into per-shard
// batches of up to BatchMax requests, and shed with explicit backpressure
// (HTTP 429 + Retry-After) when a shard's bounded queue overflows. The
// server owns the cells from here on.
func NewDecisionServer(cfg DecisionServerConfig, cells []*Cell) (*DecisionServer, error) {
	return serve.New(cfg, cells)
}

// Run simulates one policy over the horizon.
func (s *Scenario) Run(p Policy) (*Result, error) {
	r, err := s.runner(false)
	if err != nil {
		return nil, err
	}
	return r.Run(p)
}

// RunWithRegret simulates one policy with a shadow Oracle, populating
// Result.Regret.
func (s *Scenario) RunWithRegret(p Policy) (*Result, error) {
	r, err := s.runner(true)
	if err != nil {
		return nil, err
	}
	return r.Run(p)
}

// Compare runs the named policies over identical slot conditions and
// returns results in input order.
func (s *Scenario) Compare(names ...string) ([]*Result, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("l4e: no policies to compare")
	}
	results := make([]*Result, 0, len(names))
	for _, name := range names {
		p, err := s.NewPolicy(name)
		if err != nil {
			return nil, err
		}
		res, err := s.Run(p)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	return results, nil
}
