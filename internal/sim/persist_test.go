package sim

import (
	"math"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/obs"
)

// persistEnv builds a runner with a FRESH fault schedule each call, so the
// reference run and the restored run have independent injector RNG streams
// (a shared schedule would entangle them).
func persistEnv(t *testing.T, trackRegret bool) *Runner {
	t.Helper()
	net, w := testEnv(t, 15, 8, 20)
	spike, err := faults.NewDelaySpike(0.3, 3, 2, 41)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := faults.NewFeedbackLoss(0.2, 0.2, 43)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.NewSchedule(net.NumStations(), spike, fl)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(net, w, Config{
		Seed: 17, DemandsGiven: true, Faults: sched, TrackRegret: trackRegret, WarmCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func drive(t *testing.T, c *Cell, slots int) []float64 {
	t.Helper()
	delays := make([]float64, 0, slots)
	for i := 0; i < slots; i++ {
		d, err := c.Decide(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Observe(nil, nil); err != nil {
			t.Fatal(err)
		}
		delays = append(delays, d.DelayMS)
	}
	return delays
}

// TestCheckpointRestoreBitIdentical is the headline durability guarantee at
// the sim layer: a cell checkpointed mid-horizon and restored into a fresh
// scenario continues bit-identically to the cell that never stopped.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const mid, rest = 7, 9
	ref := persistEnv(t, true)
	refCell, err := ref.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, refCell, mid)
	payload, err := refCell.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	wantTail := drive(t, refCell, rest)
	wantFinal, err := refCell.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	got := persistEnv(t, true)
	gotCell, err := got.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if err := gotCell.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if gotCell.Slot() != mid {
		t.Fatalf("restored slot = %d, want %d", gotCell.Slot(), mid)
	}
	gotTail := drive(t, gotCell, rest)
	for i := range wantTail {
		if math.Float64bits(gotTail[i]) != math.Float64bits(wantTail[i]) {
			t.Fatalf("slot %d delay %v != reference %v", mid+i, gotTail[i], wantTail[i])
		}
	}
	gotFinal, err := gotCell.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	wd, err := StateDigest(wantFinal)
	if err != nil {
		t.Fatal(err)
	}
	gd, err := StateDigest(gotFinal)
	if err != nil {
		t.Fatal(err)
	}
	if wd != gd {
		t.Fatalf("final state digest %08x != reference %08x", gd, wd)
	}
	if refCell.res.Regret.Cumulative() != gotCell.res.Regret.Cumulative() {
		t.Fatalf("cumulative regret %v != reference %v",
			gotCell.res.Regret.Cumulative(), refCell.res.Regret.Cumulative())
	}
}

// TestCheckpointRestoreRegretSeriesBitIdentical checkpoints a regret-tracking
// cell at flow scale (15 stations x 20 requests), where the shadow Oracle
// carries a network-simplex basis across slots. The restored cell's Oracle
// starts cold, so the checkpoint must reset the live Oracle too. After the
// checkpoint both cells must make the same warm and cold solves, and the
// restored cell's regret series must equal the uninterrupted one bit for bit.
func TestCheckpointRestoreRegretSeriesBitIdentical(t *testing.T) {
	const stations, requests, horizon, mid = 15, 20, 24, 9
	env := func(ob *obs.Observer) *Runner {
		net, w := testEnv(t, stations, requests, horizon)
		surge, err := faults.NewDemandSurge(0.2, 3, 3, 51)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := faults.NewSchedule(net.NumStations(), surge)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(net, w, Config{
			Seed: 23, DemandsGiven: true, Faults: sched, TrackRegret: true, WarmCache: true, Observer: ob,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	refObs := obs.New(obs.Options{})
	refCell, err := env(refObs).NewCell(newOLGD(t, stations))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, refCell, mid)
	payload, err := refCell.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	atCheckpoint := refObs.Snapshot().Counters
	drive(t, refCell, horizon-mid)
	refTail := refObs.Snapshot().Counters

	gotObs := obs.New(obs.Options{})
	gotCell, err := env(gotObs).NewCell(newOLGD(t, stations))
	if err != nil {
		t.Fatal(err)
	}
	if err := gotCell.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	drive(t, gotCell, horizon-mid)
	gotTail := gotObs.Snapshot().Counters

	for _, name := range []string{"flow.basis_rebuilds", "flow.warm_starts"} {
		if want, got := refTail[name]-atCheckpoint[name], gotTail[name]; got != want {
			t.Errorf("%s after the checkpoint: restored %d, reference %d", name, got, want)
		}
	}
	want, got := refCell.res.Regret.PerSlot(), gotCell.res.Regret.PerSlot()
	if len(got) != horizon || len(want) != horizon {
		t.Fatalf("regret series lengths %d (restored), %d (reference); want %d", len(got), len(want), horizon)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("slot %d regret %v != reference %v", i, got[i], want[i])
		}
	}
}

// TestCheckpointWhilePendingObserve covers the protocol split: a snapshot
// taken between Decide and Observe restores the pending slot and the
// restored cell's Observe matches the reference bitwise.
func TestCheckpointWhilePendingObserve(t *testing.T) {
	ref := persistEnv(t, false)
	refCell, err := ref.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, refCell, 5)
	if _, err := refCell.Decide(nil); err != nil {
		t.Fatal(err)
	}
	if !refCell.PendingObserve() {
		t.Fatal("no pending observe after Decide")
	}
	payload, err := refCell.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := refCell.Observe(nil, nil); err != nil {
		t.Fatal(err)
	}
	wantTail := drive(t, refCell, 4)

	got := persistEnv(t, false)
	gotCell, err := got.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if err := gotCell.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	if !gotCell.PendingObserve() {
		t.Fatal("restored cell lost its pending observe")
	}
	if err := gotCell.Observe(nil, nil); err != nil {
		t.Fatal(err)
	}
	gotTail := drive(t, gotCell, 4)
	for i := range wantTail {
		if math.Float64bits(gotTail[i]) != math.Float64bits(wantTail[i]) {
			t.Fatalf("slot %d delay %v != reference %v", i, gotTail[i], wantTail[i])
		}
	}
}

// TestApplyOpReplaysWAL drives the restored cell through encoded WAL
// records instead of direct calls — the exact path crash recovery takes.
func TestApplyOpReplaysWAL(t *testing.T) {
	const mid, rest = 6, 5
	ref := persistEnv(t, false)
	refCell, err := ref.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, refCell, mid)
	payload, err := refCell.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	var ops [][]byte
	for i := 0; i < rest; i++ {
		if _, err := refCell.Decide(nil); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, EncodeDecideOp(nil))
		if err := refCell.Observe(nil, nil); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, EncodeObserveOp(nil, nil))
	}
	want, err := refCell.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	got := persistEnv(t, false)
	gotCell, err := got.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if err := gotCell.RestoreState(payload); err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if err := gotCell.ApplyOp(op); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	gotState, err := gotCell.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	wd, _ := StateDigest(want)
	gd, _ := StateDigest(gotState)
	if wd != gd {
		t.Fatalf("replayed state digest %08x != reference %08x", gd, wd)
	}
}

func TestRestorePreconditionsAndInspect(t *testing.T) {
	r := persistEnv(t, false)
	c, err := r.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	drive(t, c, 3)
	payload, err := c.ExportState()
	if err != nil {
		t.Fatal(err)
	}

	// Not fresh: the exporting cell itself has run.
	if err := c.RestoreState(payload); err == nil {
		t.Error("RestoreState accepted a non-fresh cell")
	}

	// Wrong policy.
	r2 := persistEnv(t, false)
	g, err := algorithms.NewGreedyGD(histFor(r2.net), false)
	if err != nil {
		t.Fatal(err)
	}
	wrong, err := r2.NewCell(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.RestoreState(payload); err == nil {
		t.Error("RestoreState accepted a snapshot from a different policy")
	}

	// Regret-tracking mismatch.
	r3 := persistEnv(t, true)
	mism, err := r3.NewCell(newOLGD(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if err := mism.RestoreState(payload); err == nil {
		t.Error("RestoreState accepted a regret-tracking mismatch")
	}

	info, err := InspectState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if info.Policy != "OL_GD" || info.Slot != 3 || info.Decides != 3 || info.Observes != 3 || info.Pending {
		t.Fatalf("InspectState = %+v", info)
	}
	digest, err := StateDigest(payload)
	if err != nil {
		t.Fatal(err)
	}
	if digest != info.Digest {
		t.Fatalf("digest %08x != inspect digest %08x", digest, info.Digest)
	}

	// Truncations never panic and never succeed silently.
	for cut := 0; cut < len(payload); cut += 37 {
		r4 := persistEnv(t, false)
		fresh, err := r4.NewCell(newOLGD(t, 15))
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.RestoreState(payload[:cut]); err == nil {
			t.Fatalf("truncation at %d restored without error", cut)
		}
	}
}

// TestExportStateSizeIsFlat drives one cell far past its workload horizon, as
// a serving cell runs: a payload holds running totals, not per-slot series,
// so its size at 6,400 decides stays within a constant of its size at 64.
// Greedy_GD keeps the 6,400 decides cheap; the cell's own state is the same
// for every policy.
func TestExportStateSizeIsFlat(t *testing.T) {
	net, w := testEnv(t, 12, 8, 20)
	r, err := NewRunner(net, w, Config{Seed: 7, DemandsGiven: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := algorithms.NewGreedyGD(histFor(net), false)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.NewCell(g)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int {
		payload, err := c.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		return len(payload)
	}
	drive(t, c, 64)
	at64 := size()
	drive(t, c, 6400-64)
	if at6400 := size(); at6400 > at64+256 {
		t.Fatalf("ExportState grew from %d B at 64 decides to %d B at 6,400", at64, at6400)
	}
}
