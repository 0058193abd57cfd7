package l4e

import (
	"testing"
)

// determinismScales are the two solver backends obsTestScenario can reach:
// the exact simplex (10 requests) and the min-cost flow on the warm network
// simplex (20 requests).
var determinismScales = []struct {
	name     string
	requests int
}{
	{"exact", 10},
	{"flow", 20},
}

// TestWorkspaceSolvesAreBitIdentical is the paired-seed determinism guard for
// the allocation-free, warm-started solver path: "OL_GD" (shared
// caching.Workspace, in-place tableau/graph reuse, basis carried across
// slots) and "OL_GD/fresh-solve" (identical policy configured to allocate
// from scratch and solve cold every slot) must produce bit-identical
// per-slot delays on the same scenario, whose slot LPs have unique optima.
// Any drift here means the reuse or the warm start changed the decisions.
func TestWorkspaceSolvesAreBitIdentical(t *testing.T) {
	for _, sc := range determinismScales {
		t.Run(sc.name, func(t *testing.T) {
			o := NewObserver(ObserverOptions{})
			results, err := obsTestScenario(t, o, WithWorkloadConfig(obsTestWorkload(sc.requests))).
				Compare("OL_GD", "OL_GD/fresh-solve")
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
			if sc.name == "flow" && reused.WarmSolves == 0 {
				t.Error("the workspace policy never warm-started at flow scale")
			}
			if fresh.WarmSolves != 0 || fresh.SkippedSolves != 0 {
				t.Errorf("fresh-solve policy carried state: warm %d skip %d", fresh.WarmSolves, fresh.SkippedSolves)
			}

			// The reuse counters must show the two paths actually differed: the
			// workspace policy rewrites its cached problem after the first slot,
			// the fresh policy rebuilds every slot.
			snap := o.Snapshot()
			if snap.Counters["lp.workspace_reuses"] == 0 {
				t.Error("no lp.workspace_reuses recorded — workspace path never exercised")
			}
			if snap.Counters["lp.workspace_builds"] == 0 {
				t.Error("no lp.workspace_builds recorded")
			}
		})
	}
}

// TestIncrementalRunIsDeterministic is the same guard for the warm-start
// path: two runs of "OL_GD" on paired scenarios must be bit-identical
// (carried bases are deterministic). At flow scale the run must actually
// warm-start, and the observer must count each warm start once, as
// flow.warm_starts.
func TestIncrementalRunIsDeterministic(t *testing.T) {
	for _, sc := range determinismScales {
		t.Run(sc.name, func(t *testing.T) {
			o := NewObserver(ObserverOptions{})
			run := func() *Result {
				results, err := obsTestScenario(t, o, WithWorkloadConfig(obsTestWorkload(sc.requests))).
					Compare("OL_GD")
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
			if a.WarmSolves != b.WarmSolves || a.SkippedSolves != b.SkippedSolves {
				t.Errorf("solve accounting diverged: warm %d/%d skip %d/%d",
					a.WarmSolves, b.WarmSolves, a.SkippedSolves, b.SkippedSolves)
			}
			snap := o.Snapshot()
			if got, want := snap.Counters["flow.warm_starts"], int64(a.WarmSolves+b.WarmSolves); got != want {
				t.Errorf("flow.warm_starts = %d, want %d (one per warm solve)", got, want)
			}
			if sc.name == "flow" && a.WarmSolves == 0 {
				t.Error("incremental policy never warm-started at flow scale")
			}
			for _, retired := range []string{"lp.warm_hits", "flow.repairs", "lp.warm_fallbacks"} {
				if _, ok := snap.Counters[retired]; ok {
					t.Errorf("retired counter %s still recorded", retired)
				}
			}
		})
	}
}
