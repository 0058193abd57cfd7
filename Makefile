# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go
# PR number stamped into the benchmark-trajectory file (BENCH_$(PR).json).
PR ?= 10

.PHONY: all build test test-short vet race bench bench-json figures examples fuzz chaos mecstat-smoke clean

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

vet:
	$(GO) vet ./...

# Race-detector pass over the concurrency-sensitive paths: the simulator
# integration tests, the lock-free observability registry, the fault
# injectors, the decision daemon (concurrent decide/observe hammering,
# per-cell determinism, backpressure, crash recovery), the durable-state
# layer, the shared observer under parallel experiment repeats, and the
# parallel chaos + kill-and-restore matrices.
race:
	$(GO) test -race ./internal/sim/ ./internal/obs/ ./internal/faults/ ./internal/serve/ ./internal/persist/ ./cmd/mecd/
	$(GO) test -race -run 'Observer|Chaos|Durable' .

# Chaos suite: the injector unit tests, the degradation-ladder tests, the
# sim-level fault integration tests, and the root chaos matrix.
chaos:
	$(GO) test ./internal/faults/ ./internal/caching/ -run 'Ladder|Greedy|Shed'
	$(GO) test ./internal/sim/ -run 'Blackout|Bandit|ZeroRate|FaultSchedule|DemandSurge|Failure'
	$(GO) test -race -run 'Chaos|SolveBudget' -v .

# Fuzz the parsers that ingest external input: the chaos-spec grammar (which
# must also round-trip through Schedule.Spec), the durable-state decoders
# (snapshot framing and WAL replay, which face arbitrary torn/bit-flipped
# bytes after a crash), and the daemon's decide and observe request bodies
# (no body may crash a shard worker) — plus the network-simplex solver on
# arbitrary small graphs, solved cold and then re-solved warm for a second
# flow value on the same workspace (never panics, invariants always hold,
# both solves agree with the SSP referee in internal/flow/flowref on
# non-negative costs).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/faults/
	$(GO) test -fuzz=FuzzReadSnapshot -fuzztime=$(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz=FuzzReplayWAL -fuzztime=$(FUZZTIME) ./internal/persist/
	$(GO) test -fuzz=FuzzHandleDecide -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzHandleObserve -fuzztime=$(FUZZTIME) ./internal/serve/
	$(GO) test -fuzz=FuzzMinCostFlowSimplex -fuzztime=$(FUZZTIME) ./internal/flow/

# Full benchmark suite: regenerates every paper figure plus the ablations.
bench:
	$(GO) test -bench=. -benchmem -benchtime 1x ./...

# Benchmark-trajectory snapshot: runs the root-package benches and records
# them as BENCH_$(PR).json via cmd/benchjson — the input cmd/benchdiff judges
# performance PRs with. Benches are grouped by cost so every entry gets a
# FIXED, meaningful iteration count instead of `-benchtime 1x` noise:
# the cheap micro-benches (solver, LSTM, observer hooks, durable checkpoint
# and crash recovery) run long enough for
# stable ns/op and repeat -count 3 (benchjson merges the repeats,
# iteration-weighted); the multi-second figure/ablation/daemon benches stay
# at one iteration — their payload is the custom metrics (mean delays,
# decisions_per_s), which average internally over many slots already. The
# DecisionServer fresh-solve/warm pair runs at a fixed 15 iterations so the
# warm path is measured at steady state (its first iterations are spent
# building carried bases) instead of on its cold-start transient.
bench-json:
	{ $(GO) test -run '^$$' -bench 'ObserverNopHooks' -benchmem -benchtime 100000x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'SolveLP|LSTMStep|Incremental|Checkpoint|Recovery' -benchmem -benchtime 20x -count 3 . && \
	  $(GO) test -run '^$$' -bench 'DecisionServer64Cells' -benchmem -benchtime 15x . && \
	  $(GO) test -run '^$$' -bench 'Fig|RegretBound|GammaSweep|ScheduleAblation|AdaptiveBaselines|OracleGap|WarmCacheAblation|FailureRobustness|ScheduledEvents|ObserverSimOverhead' -benchmem -benchtime 1x . ; } \
		| $(GO) run ./cmd/benchjson -pr $(PR) -out BENCH_$(PR).json

# End-to-end observability smoke: a 5-policy chaos comparison with regret
# tracking and the flight recorder, analysed by mecstat (text + JSON).
mecstat-smoke:
	$(GO) run ./cmd/mecsim -compare OL_GD,Greedy_GD,Pri_GD,OL_GD/UCB,OL_GD/Thompson \
		-stations 30 -slots 60 -regret -chaos "regional:0.08:3,feedback:0.1" \
		-flight /tmp/mecstat-smoke.flight.jsonl
	$(GO) run ./cmd/mecstat /tmp/mecstat-smoke.flight.jsonl
	$(GO) run ./cmd/mecstat -json /tmp/mecstat-smoke.flight.jsonl > /tmp/mecstat-smoke.json
	@echo "mecstat-smoke: OK (artifacts in /tmp/mecstat-smoke.*)"

# Print the paper's figures as tables (repeats=3; raise for tighter curves).
figures:
	$(GO) run ./cmd/mecsim -fig 3
	$(GO) run ./cmd/mecsim -fig 4
	$(GO) run ./cmd/mecsim -fig 5
	$(GO) run ./cmd/mecsim -fig 6
	$(GO) run ./cmd/mecsim -fig 7

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/flashcrowd
	$(GO) run ./examples/as1755
	$(GO) run ./examples/forecastbench
	$(GO) run ./examples/failures

clean:
	$(GO) clean ./...
