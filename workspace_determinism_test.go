package l4e

import (
	"testing"
)

// TestWorkspaceSolvesAreBitIdentical is the paired-seed determinism guard for
// the allocation-free, warm-started solver path: "OL_GD" (shared
// caching.Workspace, in-place tableau/graph reuse, basis carried across
// slots) and "OL_GD/fresh-solve" (identical policy configured to allocate
// from scratch and solve cold every slot) must produce bit-identical
// per-slot delays on the same scenario, whose slot LPs have unique optima.
// Any drift here means the reuse or the warm start changed the decisions.
func TestWorkspaceSolvesAreBitIdentical(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	results, err := obsTestScenario(t, o).Compare("OL_GD", "OL_GD/fresh-solve")
	if err != nil {
		t.Fatal(err)
	}
	reused, fresh := results[0], results[1]
	if len(reused.PerSlotDelayMS) == 0 || len(reused.PerSlotDelayMS) != len(fresh.PerSlotDelayMS) {
		t.Fatalf("slot counts: %d (workspace) vs %d (fresh)",
			len(reused.PerSlotDelayMS), len(fresh.PerSlotDelayMS))
	}
	for tt, d := range reused.PerSlotDelayMS {
		if fresh.PerSlotDelayMS[tt] != d {
			t.Fatalf("slot %d: %x (workspace) != %x (fresh-solve)", tt, d, fresh.PerSlotDelayMS[tt])
		}
	}
	if reused.AvgDelayMS != fresh.AvgDelayMS {
		t.Fatalf("average delay: %x (workspace) != %x (fresh-solve)",
			reused.AvgDelayMS, fresh.AvgDelayMS)
	}

	// The reuse counters must show the two paths actually differed: the
	// workspace policy rewrites its cached problem after the first slot, the
	// fresh policy rebuilds every slot.
	snap := o.Snapshot()
	if snap.Counters["lp.workspace_reuses"] == 0 {
		t.Error("no lp.workspace_reuses recorded — workspace path never exercised")
	}
	if snap.Counters["lp.workspace_builds"] == 0 {
		t.Error("no lp.workspace_builds recorded")
	}
}

// TestIncrementalRunIsDeterministic is the same guard for the warm-start
// path: two runs of "OL_GD" on paired scenarios must be bit-identical
// (carried bases are deterministic), the run must actually warm-start, and
// the observer must surface the hits as lp.warm_hits / flow.repairs
// counters.
func TestIncrementalRunIsDeterministic(t *testing.T) {
	o := NewObserver(ObserverOptions{})
	run := func() *Result {
		results, err := obsTestScenario(t, o).Compare("OL_GD")
		if err != nil {
			t.Fatal(err)
		}
		return results[0]
	}
	a, b := run(), run()
	if len(a.PerSlotDelayMS) == 0 || len(a.PerSlotDelayMS) != len(b.PerSlotDelayMS) {
		t.Fatalf("slot counts: %d vs %d", len(a.PerSlotDelayMS), len(b.PerSlotDelayMS))
	}
	for tt, d := range a.PerSlotDelayMS {
		if b.PerSlotDelayMS[tt] != d {
			t.Fatalf("slot %d: %x != %x", tt, d, b.PerSlotDelayMS[tt])
		}
	}
	if a.WarmSolves == 0 {
		t.Error("incremental policy never warm-started")
	}
	if a.WarmSolves != b.WarmSolves || a.SkippedSolves != b.SkippedSolves {
		t.Errorf("solve accounting diverged: warm %d/%d skip %d/%d",
			a.WarmSolves, b.WarmSolves, a.SkippedSolves, b.SkippedSolves)
	}
	snap := o.Snapshot()
	if snap.Counters["lp.warm_hits"]+snap.Counters["flow.repairs"] == 0 {
		t.Error("no lp.warm_hits or flow.repairs recorded — warm path invisible to the observer")
	}
}
