// Command mecd is the multi-cell decision daemon: a long-running serving
// process that owns N independent MEC cells — each a step-wise simulation
// cell with its own seeded RNG, bandit learner, fault schedule, and solver
// workspaces — sharded across a worker pool, and answers caching/offloading
// decisions over an HTTP JSON API.
//
// Serve 64 cells on 8 shards:
//
//	mecd -cells 64 -shards 8 -addr localhost:8370
//
// Ask cell 3 for the next slot's decision, then report measured delays back:
//
//	curl -s localhost:8370/v1/decide -d '{"cell":3}'
//	curl -s localhost:8370/v1/observe -d '{"cell":3,"delays":{"17":12.5}}'
//	curl -s localhost:8370/v1/cells
//
// Requests are coalesced into per-shard batches (up to -batch per tick);
// when a shard's bounded queue (-queue) overflows, requests are rejected
// with 429 + Retry-After instead of blocking. SIGINT/SIGTERM drains
// gracefully: in-flight requests complete, observability sinks flush.
//
// Live telemetry (serve.requests{cell,route}, serve.batch_size,
// serve.queue_depth, serve.rejected plus the full solver/bandit series):
//
//	mecd -cells 16 -telemetry-addr localhost:9090
//	curl -s localhost:9090/metrics | grep serve
//
// Request-scoped latency attribution and SLO tracking: -trace records one
// span tree per request (ingest → queue wait → batch wait → solve → encode)
// as JSONL, decomposed post-hoc with `mecstat -spans FILE`; -slo-latency-ms
// attaches a rolling-window burn-rate tracker served at /slo and makes
// /healthz readiness-aware (ok / degraded / overloaded / draining):
//
//	mecd -cells 16 -trace spans.jsonl -slo-latency-ms 5
//	curl -s localhost:8370/slo
//
// Durable cell state: -state-dir checkpoints every cell (snapshot + WAL,
// one subdirectory per cell) so a killed daemon restarts exactly where it
// died — recovery replays the WAL tail on top of the newest valid snapshot
// and the resumed run is bit-identical to one that never crashed. While
// replay runs, /healthz reports 503 "recovering" and requests get 503 +
// Retry-After. Inspect a state directory offline with `mecstat -state DIR`:
//
//	mecd -cells 16 -state-dir /var/lib/mecd & pid=$!
//	kill -9 $pid && mecd -cells 16 -state-dir /var/lib/mecd  # resumes
//
// Self-driving throughput mode (no HTTP; each cell closed-loop for N slots):
//
//	mecd -cells 64 -drive 100
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/mecsim/l4e"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mecd:", err)
		os.Exit(1)
	}
}

// cleanupStack runs registered finalisers exactly once — on normal exit AND
// on SIGINT/SIGTERM — mirroring mecsim's pattern so buffered flight records
// and telemetry state reach disk even when the daemon is interrupted.
type cleanupStack struct {
	mu   sync.Mutex
	once sync.Once
	fns  []func()
}

func (c *cleanupStack) push(fn func()) {
	c.mu.Lock()
	c.fns = append(c.fns, fn)
	c.mu.Unlock()
}

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

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("mecd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "localhost:8370", "HTTP listen address for the decision API")
		cells       = fs.Int("cells", 8, "number of independent MEC cells to serve")
		shards      = fs.Int("shards", 0, "worker-pool size (0 = GOMAXPROCS)")
		batch       = fs.Int("batch", 16, "max decide/observe requests coalesced per shard tick")
		queue       = fs.Int("queue", 256, "per-shard pending-request bound (overflow → 429)")
		policies    = fs.String("policy", "OL_GD", "comma-separated policy names, assigned to cells round-robin")
		stations    = fs.Int("stations", 30, "stations per cell's GT-ITM network")
		seed        = fs.Int64("seed", 1, "base seed; cell i uses seed+i")
		hidden      = fs.Bool("hidden", false, "hide true demands from policies (bursty volumes must be predicted)")
		chaos       = fs.String("chaos", "", "fault-injection spec applied to every cell (see mecsim -chaos)")
		chaosSeed   = fs.Int64("chaos-seed", 0, "chaos seed base (0 = derive from -seed); cell i adds i")
		solveBudget = fs.Int("solve-budget", 0, "simplex pivot budget per slot solve (0 = unlimited)")
		telemetry   = fs.String("telemetry-addr", "", "serve live /metrics, /snapshot, /events on this address")
		flightDir   = fs.String("flight-dir", "", "write one flight-recorder JSONL per cell into this directory")
		trace       = fs.String("trace", "", "write request-scoped latency spans as JSONL to this file (decompose with mecstat -spans)")
		sloLatency  = fs.Float64("slo-latency-ms", 0, "per-request latency objective in ms; > 0 enables SLO tracking (/slo, readiness-aware /healthz)")
		sloTarget   = fs.Float64("slo-latency-target", 0.99, "fraction of requests that must meet the latency objective")
		sloBudget   = fs.Float64("slo-error-budget", 0.001, "largest acceptable fraction of failed requests")
		sloWindows  = fs.String("slo-windows", "1m,10m", "comma-separated burn-rate windows, shortest first")
		stateDir    = fs.String("state-dir", "", "durable per-cell state root: snapshot + WAL per cell, crash recovery on startup")
		ckptEvery   = fs.Int("checkpoint-interval", 64, "decides between snapshots (must match across restarts: checkpoints are warm-state barriers)")
		drive       = fs.Int("drive", 0, "self-drive every cell closed-loop for N slots and exit (no HTTP)")
	)
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cells <= 0 {
		return fmt.Errorf("-cells %d: want at least 1", *cells)
	}
	names := strings.Split(*policies, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}

	cleanups := &cleanupStack{}
	defer cleanups.run()

	var (
		observer *l4e.Observer
		obsOpts  l4e.ObserverOptions
	)
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		cleanups.push(func() { f.Close() }) //nolint:errcheck
		obsOpts.TraceWriter = f
	}
	if *telemetry != "" || *trace != "" {
		observer = l4e.NewObserver(obsOpts)
		// Flush runs before the trace file's Close (cleanups pop in reverse),
		// so buffered spans reach disk even on SIGINT.
		cleanups.push(func() { observer.Flush() }) //nolint:errcheck
	}
	if *telemetry != "" {
		ts, err := l4e.ServeTelemetry(*telemetry, observer)
		if err != nil {
			return err
		}
		cleanups.push(func() { ts.Close() })
		fmt.Fprintf(out, "mecd: telemetry on %s\n", ts.URL())
	}

	var slo *l4e.SLOTracker
	if *sloLatency > 0 {
		var windows []time.Duration
		for _, w := range strings.Split(*sloWindows, ",") {
			w = strings.TrimSpace(w)
			if w == "" {
				continue
			}
			d, err := time.ParseDuration(w)
			if err != nil {
				return fmt.Errorf("-slo-windows %q: %w", *sloWindows, err)
			}
			windows = append(windows, d)
		}
		slo = l4e.NewSLOTracker(l4e.SLOConfig{
			LatencyObjectiveMS: *sloLatency,
			LatencyTarget:      *sloTarget,
			ErrorBudget:        *sloBudget,
			Windows:            windows,
		})
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return err
		}
	}

	pool := make([]*l4e.Cell, *cells)
	for i := 0; i < *cells; i++ {
		opts := []l4e.ScenarioOption{
			l4e.WithStations(*stations),
			l4e.WithSeed(*seed + int64(i)),
			l4e.WithDemandsGiven(!*hidden),
			l4e.WithSolveBudget(*solveBudget),
		}
		if *chaos != "" {
			base := *chaosSeed
			if base == 0 {
				base = *seed + 4000
			}
			opts = append(opts, l4e.WithChaos(*chaos), l4e.WithChaosSeed(base+int64(i)))
		}
		if observer != nil {
			opts = append(opts, l4e.WithObserver(observer))
		}
		scn, err := l4e.NewScenario(opts...)
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		if *flightDir != "" {
			f, err := os.Create(filepath.Join(*flightDir, fmt.Sprintf("cell-%03d.flight.jsonl", i)))
			if err != nil {
				return err
			}
			fr := l4e.NewFlightRecorder(f)
			scn.Flight = fr
			cleanups.push(func() { fr.Flush(); f.Close() }) //nolint:errcheck
		}
		cell, err := scn.NewCell(names[i%len(names)])
		if err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
		pool[i] = cell
	}

	srv, err := l4e.NewDecisionServer(l4e.DecisionServerConfig{
		Shards:     *shards,
		QueueDepth: *queue,
		BatchMax:   *batch,
		Observer:   observer,
		SLO:        slo,
		StateDir:   *stateDir,
		// A worker panic still crashes the daemon, but the cleanup stack
		// runs first so buffered flight records and trace spans reach disk.
		OnPanic:         cleanups.run,
		CheckpointEvery: *ckptEvery,
	}, pool)
	if err != nil {
		return err
	}
	if *stateDir != "" {
		// Block until crash recovery replays the WAL tail; until then the
		// cells aren't at their durable slots (HTTP mode would answer
		// /healthz "recovering" and 503 requests, but for a CLI it is
		// friendlier to come up ready).
		<-srv.Recovered()
		fmt.Fprintf(out, "mecd: durable state in %s (checkpoint every %d decides)\n", *stateDir, *ckptEvery)
		for _, info := range srv.Cells() {
			if info.Slot > 0 {
				fmt.Fprintf(out, "mecd: cell %d recovered at slot %d\n", info.Cell, info.Slot)
			}
		}
	}

	if *drive > 0 {
		if err := driveCells(out, srv, *seed, *drive); err != nil {
			return err
		}
		if slo != nil {
			rep := slo.Report()
			fmt.Fprintf(out, "mecd: slo state %s (burn %.2f over %s)\n",
				rep.State, rep.Windows[0].Burn, rep.Windows[0].Window)
		}
		return nil
	}

	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mecd: serving %d cells on %d shards at http://%s (batch %d, queue %d)\n",
		srv.NumCells(), srv.NumShards(), lis.Addr(), *batch, *queue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "mecd: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "mecd: shutdown:", err)
		}
	}()
	if err := srv.Serve(lis); err != nil {
		return err
	}
	fmt.Fprintln(out, "mecd: drained")
	return nil
}

// driveCells closed-loops every cell for n slots through the shard pool —
// the daemon's own load generator, used for throughput measurement and
// smoke-testing without an HTTP client. The loop itself lives in the serve
// layer (DecisionServer.Drive): backpressure rejections are retried after a
// jittered, Retry-After-grounded sleep and surface in the summary's retries
// count instead of being hammered back immediately.
func driveCells(out io.Writer, srv *l4e.DecisionServer, seed int64, n int) error {
	sum, err := srv.Drive(l4e.DriveConfig{Slots: n, Seed: seed})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "mecd: drove %d cells x %d slots = %d decisions in %.2fs (%.0f decisions/s, %d retries)\n",
		sum.Cells, sum.Slots, sum.Decisions, sum.Elapsed.Seconds(), sum.DecisionsPerS, sum.Retries)
	for _, info := range srv.Cells() {
		fmt.Fprintf(out, "  cell %3d shard %2d %-12s slots %4d avg %.2f ms degraded %d rejected %d\n",
			info.Cell, info.Shard, info.Policy, info.Slot, info.AvgDelayMS, info.DegradedSlots, info.Rejected)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return srv.Shutdown(ctx)
}
