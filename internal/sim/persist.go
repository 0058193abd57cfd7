package sim

import (
	"fmt"
	"hash/crc32"
	"sort"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/caching"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/persist"
)

// This file is the cell-level state codec behind the durability layer
// (internal/persist owns framing and files; this file owns what a cell's
// state IS). The contract is bit-identical resume: a cell restored from
// ExportState and driven forward produces exactly the delays, regret, and
// arm statistics of the cell that never stopped.
//
// What is captured: the policy's learner state (arms, predictor histories,
// GAN weights) and RNG cursors, the environment RNG cursor, the fault
// schedule position (restored by replaying Apply and discarding the
// effects), result counters, warm-cache accounting, and the pending
// Decide/Observe protocol state. What is deliberately NOT captured: solver
// workspaces. A restored process rebuilds them cold, so taking a checkpoint
// resets the live policy's warm state too (Checkpoint) — both histories
// then run cold from the checkpoint slot and stay bit-identical.
//
// Payload layout: a wall-clock section FIRST (the runtime total — genuinely
// non-deterministic, restored verbatim but excluded from the state digest),
// then the deterministic section. Both sections hold running totals only, so
// a payload's size does not grow with the number of slots played.
// StateDigest hashes only the bytes after the wall-clock block, so two runs
// that agree on every decision agree on their digests even though their
// wall-clock timings differ.

// ErrNotFresh rejects RestoreState on a cell that has already run.
var errNotFresh = fmt.Errorf("sim: RestoreState needs a freshly constructed cell")

// WAL op kinds.
const (
	opDecide  = uint32(1)
	opObserve = uint32(2)
)

// ExportState serializes the cell's complete resumable state. It is pure:
// the cell is unchanged and remains driveable. The policy must support
// checkpointing (all built-in policies except the shadow Oracle do).
func (c *Cell) ExportState() ([]byte, error) {
	pp, ok := c.policy.(algorithms.PersistentPolicy)
	if !ok {
		return nil, fmt.Errorf("sim: policy %s does not support checkpointing", c.policy.Name())
	}

	// Wall-clock section: real timings, meaningless for determinism.
	var wall persist.Encoder
	wall.Float64(c.res.TotalRuntimeMS)
	wall.Bool(c.pending != nil)
	if c.pending != nil {
		wall.Float64(c.pending.decideMS)
	}

	var e persist.Encoder
	e.Blob(wall.Bytes())

	// Deterministic section header (InspectState reads exactly this much).
	e.String(c.policy.Name())
	e.Int(c.t)
	e.Int64(c.decides)
	e.Int64(c.observes)

	// Environment randomness and aggregate state.
	e.Uint64(c.src.Draws())
	e.Float64(c.sumDelay)
	encodeInstSet(&e, c.prevInstances)
	encodeInstSet(&e, c.obsPrevInst)

	// Result counters (the deterministic subset; runtimes live above).
	e.Int(c.res.OverloadSlots)
	e.Int(c.res.FailedStationSlots)
	e.Int(c.res.DegradedSlots)
	e.Int(c.res.FallbackSolves)
	e.Int(c.res.RepairViolations)
	e.Int(c.res.WarmSolves)
	e.Int(c.res.DecideFailures)
	e.Int(c.res.FaultsInjected)
	e.Bool(c.res.Regret != nil)
	if c.res.Regret != nil {
		c.res.Regret.SaveState(&e)
	}

	// Policy learner state.
	if err := pp.SaveState(&e); err != nil {
		return nil, fmt.Errorf("sim: saving %s state: %w", c.policy.Name(), err)
	}

	// Pending Decide/Observe protocol state.
	e.Bool(c.pending != nil)
	if c.pending != nil {
		encodePending(&e, c.pending)
	}
	return e.Bytes(), nil
}

// Checkpoint exports the cell's state AND resets the live policy's solver
// warm state. The snapshot excludes solver workspaces, so a restored
// process solves the next slot cold; resetting the live side too keeps the
// two histories bit-identical from the checkpoint on. For policies that
// solve cold every slot the reset is a no-op (cold solves over reused buffers are
// already bit-identical to fresh ones).
func (c *Cell) Checkpoint() ([]byte, error) {
	payload, err := c.ExportState()
	if err != nil {
		return nil, err
	}
	c.ResetPolicyWarmState()
	return payload, nil
}

// ResetPolicyWarmState applies the checkpoint warm-state barrier without
// exporting anything. Recovery uses it when the WAL replay crosses a
// generation boundary — a point where the dead process checkpointed — so
// the replayed history carries the same barriers as the live one. The
// shadow Oracle of a regret-tracking cell carries a basis too, and a
// restored cell rebuilds it cold, so it is reset with the policy.
func (c *Cell) ResetPolicyWarmState() {
	if rs, ok := c.policy.(algorithms.WarmStateResetter); ok {
		rs.ResetWarmState()
	}
	if c.oracle != nil {
		c.oracle.ResetWarmState()
	}
}

// RestoreState loads a payload produced by ExportState into a FRESHLY
// constructed cell built from the same scenario (same network, workload,
// config, policy construction). The fault schedule's position is restored
// by replaying Apply for every decided slot and discarding the effects —
// the injectors' private RNG streams advance exactly as they did live.
func (c *Cell) RestoreState(payload []byte) error {
	if c.t != 0 || c.decides != 0 || c.observes != 0 || c.pending != nil {
		return errNotFresh
	}
	pp, ok := c.policy.(algorithms.PersistentPolicy)
	if !ok {
		return fmt.Errorf("sim: policy %s does not support checkpointing", c.policy.Name())
	}

	d := persist.NewDecoder(payload)
	wallBytes := d.Blob()
	if err := d.Err(); err != nil {
		return err
	}
	wd := persist.NewDecoder(wallBytes)
	totalRuntime := wd.Float64()
	pendingHasMS := wd.Bool()
	pendingDecideMS := 0.0
	if pendingHasMS {
		pendingDecideMS = wd.Float64()
	}
	if err := wd.Finish(); err != nil {
		return fmt.Errorf("sim: wall-clock section: %w", err)
	}

	name := d.String()
	slot := d.Int()
	decides := d.Int64()
	observes := d.Int64()
	if err := d.Err(); err != nil {
		return err
	}
	if name != c.policy.Name() {
		return fmt.Errorf("sim: snapshot is for policy %q, cell runs %q", name, c.policy.Name())
	}
	if decides < 0 || observes < 0 || slot < 0 {
		return fmt.Errorf("sim: snapshot counters negative (slot %d, decides %d, observes %d)", slot, decides, observes)
	}

	draws := d.Uint64()
	sumDelay := d.Float64()
	prevInstances, err := decodeInstSet(d)
	if err != nil {
		return err
	}
	obsPrevInst, err := decodeInstSet(d)
	if err != nil {
		return err
	}

	res := c.res
	res.OverloadSlots = d.Int()
	res.FailedStationSlots = d.Int()
	res.DegradedSlots = d.Int()
	res.FallbackSolves = d.Int()
	res.RepairViolations = d.Int()
	res.WarmSolves = d.Int()
	res.DecideFailures = d.Int()
	res.FaultsInjected = d.Int()
	hasRegret := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasRegret != (res.Regret != nil) {
		return fmt.Errorf("sim: snapshot regret tracking %v, cell %v", hasRegret, res.Regret != nil)
	}
	if hasRegret {
		if err := res.Regret.LoadState(d); err != nil {
			return err
		}
	}

	if err := pp.LoadState(d); err != nil {
		return fmt.Errorf("sim: restoring %s state: %w", c.policy.Name(), err)
	}

	hasPending := d.Bool()
	if err := d.Err(); err != nil {
		return err
	}
	if hasPending != pendingHasMS {
		return fmt.Errorf("sim: pending flags disagree between sections")
	}
	var pending *pendingSlot
	if hasPending {
		pending, err = decodePending(d, c.r.net.NumStations())
		if err != nil {
			return err
		}
		pending.decideMS = pendingDecideMS
	}
	if err := d.Finish(); err != nil {
		return err
	}

	// Replay the fault schedule to its live position: each decided slot
	// called Apply exactly once with t = 0, 1, ..., decides-1. The effects
	// are discarded (their consequences are in the restored counters); the
	// replay's only job is advancing the injectors' private RNG streams.
	if c.r.sched != nil {
		c.r.sched.Reset()
		for t := 0; int64(t) < decides; t++ {
			c.r.sched.Apply(t)
		}
	}
	c.src.FastForward(draws)

	res.TotalRuntimeMS = totalRuntime
	c.t = slot
	c.decides = decides
	c.observes = observes
	c.sumDelay = sumDelay
	c.prevInstances = prevInstances
	c.obsPrevInst = obsPrevInst
	c.pending = pending
	return nil
}

// EncodeDecideOp frames a Decide call's inputs as a WAL record.
func EncodeDecideOp(volumes []float64) []byte {
	var e persist.Encoder
	e.Uint32(opDecide)
	e.Float64Slice(volumes)
	return e.Bytes()
}

// EncodeObserveOp frames an Observe call's inputs as a WAL record.
func EncodeObserveOp(played map[int]float64, vols []float64) []byte {
	var e persist.Encoder
	e.Uint32(opObserve)
	encodePlayed(&e, played)
	e.Float64Slice(vols)
	return e.Bytes()
}

// IsDecideOp reports whether a WAL record frames a Decide call (used by
// the serving layer to continue the checkpoint cadence across a restart).
func IsDecideOp(rec []byte) bool {
	return persist.NewDecoder(rec).Uint32() == opDecide
}

// ApplyOp replays one WAL record against the cell: the identical
// Decide/Observe call the live process executed after its last checkpoint.
func (c *Cell) ApplyOp(rec []byte) error {
	d := persist.NewDecoder(rec)
	kind := d.Uint32()
	switch kind {
	case opDecide:
		vols := d.Float64Slice()
		if err := d.Finish(); err != nil {
			return err
		}
		_, err := c.Decide(vols)
		return err
	case opObserve:
		played, err := decodePlayed(d)
		if err != nil {
			return err
		}
		vols := d.Float64Slice()
		if err := d.Finish(); err != nil {
			return err
		}
		return c.Observe(played, vols)
	default:
		if err := d.Err(); err != nil {
			return err
		}
		return fmt.Errorf("sim: unknown WAL op kind %d", kind)
	}
}

// StateInfo is a read-only summary of an ExportState payload, for
// inspection tooling (cmd/mecstat -state).
type StateInfo struct {
	Policy   string
	Slot     int
	Decides  int64
	Observes int64
	// Pending reports a decision was awaiting feedback at export.
	Pending bool
	// Digest is StateDigest of the payload.
	Digest uint32
}

// StateDigest hashes the deterministic section of an ExportState payload:
// everything after the wall-clock block. Two cells with identical decision
// histories have identical digests regardless of wall-clock timings.
func StateDigest(payload []byte) (uint32, error) {
	d := persist.NewDecoder(payload)
	d.Blob()
	if err := d.Err(); err != nil {
		return 0, err
	}
	return crc32.ChecksumIEEE(payload[len(payload)-d.Remaining():]), nil
}

// InspectState decodes the payload's header without needing the scenario
// that produced it.
func InspectState(payload []byte) (*StateInfo, error) {
	d := persist.NewDecoder(payload)
	wallBytes := d.Blob()
	if err := d.Err(); err != nil {
		return nil, err
	}
	deterministic := payload[len(payload)-d.Remaining():]
	info := &StateInfo{
		Policy:   d.String(),
		Slot:     d.Int(),
		Decides:  d.Int64(),
		Observes: d.Int64(),
		Digest:   crc32.ChecksumIEEE(deterministic),
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	wd := persist.NewDecoder(wallBytes)
	wd.Float64()
	info.Pending = wd.Bool()
	if err := wd.Err(); err != nil {
		return nil, err
	}
	return info, nil
}

// encodeInstSet writes a warm-cache instance set (distinct (service,
// station) pairs) with sorted keys and the nil/non-nil distinction kept.
func encodeInstSet(e *persist.Encoder, m map[[2]int]bool) {
	e.Bool(m == nil)
	if m == nil {
		return
	}
	keys := make([][2]int, 0, len(m))
	for k, v := range m {
		if v {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a][0] != keys[b][0] {
			return keys[a][0] < keys[b][0]
		}
		return keys[a][1] < keys[b][1]
	})
	e.Int(len(keys))
	for _, k := range keys {
		e.Int(k[0])
		e.Int(k[1])
	}
}

func decodeInstSet(d *persist.Decoder) (map[[2]int]bool, error) {
	if d.Bool() {
		return nil, d.Err()
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/16 {
		return nil, fmt.Errorf("sim: implausible instance-set size %d", n)
	}
	m := make(map[[2]int]bool, n)
	for i := 0; i < n; i++ {
		m[[2]int{d.Int(), d.Int()}] = true
	}
	return m, d.Err()
}

// encodePlayed writes a station→delay feedback map with sorted keys.
func encodePlayed(e *persist.Encoder, m map[int]float64) {
	e.Bool(m == nil)
	if m == nil {
		return
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.Int(k)
		e.Float64(m[k])
	}
}

func decodePlayed(d *persist.Decoder) (map[int]float64, error) {
	if d.Bool() {
		return nil, d.Err()
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/16 {
		return nil, fmt.Errorf("sim: implausible feedback-map size %d", n)
	}
	m := make(map[int]float64, n)
	for i := 0; i < n; i++ {
		k := d.Int()
		m[k] = d.Float64()
	}
	return m, d.Err()
}

// encodeKindCounts writes a fault-kind count map with sorted keys.
func encodeKindCounts(e *persist.Encoder, m map[string]int) {
	e.Bool(m == nil)
	if m == nil {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.Int(len(keys))
	for _, k := range keys {
		e.String(k)
		e.Int(m[k])
	}
}

func decodeKindCounts(d *persist.Decoder) (map[string]int, error) {
	if d.Bool() {
		return nil, d.Err()
	}
	// Each entry costs at least 17 bytes (empty name: 8B length + 0 + 8B
	// count ... conservatively bound by the name length prefix alone).
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/16 {
		return nil, fmt.Errorf("sim: implausible kind-count size %d", n)
	}
	m := make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := d.String()
		m[k] = d.Int()
	}
	return m, d.Err()
}

// encodeEffect deep-copies a fault effect into the payload. The live
// pointer aliases the schedule's reused Effect; the copy decouples the
// restored pending slot from the schedule (safe — by the time the schedule
// mutates it again, the pending slot has been observed).
func encodeEffect(e *persist.Encoder, eff *faults.Effect) {
	e.Bool(eff == nil)
	if eff == nil {
		return
	}
	e.Float64Slice(eff.CapacityFactor)
	e.Float64Slice(eff.DelayFactor)
	e.Float64(eff.DemandFactor)
	e.BoolSlice(eff.DropFeedback)
	e.BoolSlice(eff.CorruptFeedback)
	e.Int(eff.Injected)
	encodeKindCounts(e, eff.ByKind)
}

func decodeEffect(d *persist.Decoder, numStations int) (*faults.Effect, error) {
	if d.Bool() {
		return nil, d.Err()
	}
	eff := &faults.Effect{
		CapacityFactor:  d.Float64Slice(),
		DelayFactor:     d.Float64Slice(),
		DemandFactor:    d.Float64(),
		DropFeedback:    d.BoolSlice(),
		CorruptFeedback: d.BoolSlice(),
		Injected:        d.Int(),
	}
	byKind, err := decodeKindCounts(d)
	if err != nil {
		return nil, err
	}
	eff.ByKind = byKind
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(eff.CapacityFactor) != numStations || len(eff.DelayFactor) != numStations ||
		len(eff.DropFeedback) != numStations || len(eff.CorruptFeedback) != numStations {
		return nil, fmt.Errorf("sim: snapshot fault effect sized for %d stations, network has %d",
			len(eff.CapacityFactor), numStations)
	}
	return eff, nil
}

func encodePending(e *persist.Encoder, p *pendingSlot) {
	e.Int(p.t)
	encodeEffect(e, p.eff)
	encodeKindCounts(e, p.faultKinds)
	e.Float64Slice(p.actual)
	e.Int(p.deg.FallbackSolves)
	e.Bool(p.deg.IterLimited)
	e.Int(p.deg.RepairViolations)
	e.String(string(p.deg.Solver))
	e.Bool(p.deg.WarmSolve)
	e.Float64(p.avg)
	e.Bool(p.feasible)
	e.Bool(p.decideFailed)
	e.Bool(p.degraded)
	e.Float64(p.volMAE)
	encodePlayed(e, p.played)
	e.Float64Slice(p.vols)
	e.BoolSlice(p.active)
}

// decodePending rebuilds a pending slot minus its decideMS (wall-clock
// section) and its assignment/evalProblem (unused by Observe — only Decide
// builds them, and a pending slot never Decides again).
func decodePending(d *persist.Decoder, numStations int) (*pendingSlot, error) {
	p := &pendingSlot{t: d.Int()}
	eff, err := decodeEffect(d, numStations)
	if err != nil {
		return nil, err
	}
	p.eff = eff
	p.faultKinds, err = decodeKindCounts(d)
	if err != nil {
		return nil, err
	}
	p.actual = d.Float64Slice()
	p.deg = &algorithms.DegradeReport{
		FallbackSolves:   d.Int(),
		IterLimited:      d.Bool(),
		RepairViolations: d.Int(),
	}
	p.deg.Solver = caching.SolverKind(d.String())
	p.deg.WarmSolve = d.Bool()
	p.avg = d.Float64()
	p.feasible = d.Bool()
	p.decideFailed = d.Bool()
	p.degraded = d.Bool()
	p.volMAE = d.Float64()
	p.played, err = decodePlayed(d)
	if err != nil {
		return nil, err
	}
	p.vols = d.Float64Slice()
	p.active = d.BoolSlice()
	if err := d.Err(); err != nil {
		return nil, err
	}
	return p, nil
}
