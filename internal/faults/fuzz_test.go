package faults

import (
	"math"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/mec"
	"github.com/mecsim/l4e/internal/topology"
)

func fuzzNet(t testing.TB) *mec.Network {
	t.Helper()
	net, err := topology.GTITM(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// effectDigest folds one slot's Effect into comparable scalars (NaN-safe:
// corrupted feedback is a bool mask, the factors themselves must be finite).
type effectDigest struct {
	capSum, delaySum, demand float64
	drops, corrupts, events  int
}

func digest(e *Effect) effectDigest {
	d := effectDigest{demand: e.DemandFactor, events: e.Injected}
	for i := range e.CapacityFactor {
		d.capSum += e.CapacityFactor[i]
		d.delaySum += e.DelayFactor[i]
		if e.DropFeedback[i] {
			d.drops++
		}
		if e.CorruptFeedback[i] {
			d.corrupts++
		}
	}
	return d
}

// TestSpecRoundTrip pins the canonical forms and the behavioural equivalence
// of Parse → Spec → Parse on a representative spec, including the cases that
// used to break it: empty entries and stray whitespace shifting per-injector
// seeds, and defaulted parameters disappearing from the canonical form.
func TestSpecRoundTrip(t *testing.T) {
	net := fuzzNet(t)
	const spec = " outage:0.1 ,, regional:0.05:4, brownout:0.2:0.5:2, spike:0.1:2.5, feedback:0.1:0.05, surge:0.02:3:5, blackout:7 "
	s1, err := Parse(spec, net, 42)
	if err != nil {
		t.Fatal(err)
	}
	canon := s1.Spec()
	want := "outage:0.1:5,regional:0.05:4,brownout:0.2:0.5:2,spike:0.1:2.5:3,feedback:0.1:0.05,surge:0.02:3:5,blackout:7:1"
	if canon != want {
		t.Fatalf("canonical spec:\n got %q\nwant %q", canon, want)
	}
	s2, err := Parse(canon, net, 42)
	if err != nil {
		t.Fatalf("canonical spec does not re-parse: %v", err)
	}
	if again := s2.Spec(); again != canon {
		t.Fatalf("Spec not a fixed point: %q vs %q", again, canon)
	}
	for slot := 0; slot < 50; slot++ {
		d1, d2 := digest(s1.Apply(slot)), digest(s2.Apply(slot))
		if d1 != d2 {
			t.Fatalf("slot %d: original %+v vs canonical %+v", slot, d1, d2)
		}
	}
}

func TestConstructorsRejectNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	if _, err := NewStationOutage(nan, 5, 1); err == nil {
		t.Error("outage accepted NaN rate")
	}
	if _, err := NewBrownout(0.1, nan, 5, 1); err == nil {
		t.Error("brownout accepted NaN factor")
	}
	if _, err := NewDelaySpike(0.1, inf, 3, 1); err == nil {
		t.Error("spike accepted +Inf factor")
	}
	if _, err := NewDemandSurge(0.1, inf, 5, 1); err == nil {
		t.Error("surge accepted +Inf factor")
	}
	if _, err := NewFeedbackLoss(nan, 0, 1); err == nil {
		t.Error("feedback accepted NaN drop probability")
	}
}

// FuzzParse throws arbitrary spec strings at the chaos-spec parser. For any
// input it must not panic; for any input it accepts, the canonical form
// (Schedule.Spec) must re-parse, be a fixed point, and — with the same base
// seed — inject bit-equivalent faults slot for slot.
func FuzzParse(f *testing.F) {
	net := fuzzNet(f)
	f.Add("outage:0.02", int64(1))
	f.Add("regional:0.03:4,feedback:0.1:0.05,surge:0.02", int64(7))
	f.Add("brownout:0.2:0.5:2, spike:0.1:2.5 ,,blackout:3:2", int64(-9))
	f.Add("outage:NaN", int64(0))
	f.Add("spike:0.1:+Inf", int64(0))
	f.Add("outage:1e309", int64(0))
	f.Add(strings.Repeat("outage:0.01,", 40), int64(3))
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		s1, err := Parse(spec, net, seed)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		canon := s1.Spec()
		s2, err := Parse(canon, net, seed)
		if err != nil {
			t.Fatalf("accepted %q but canonical %q rejected: %v", spec, canon, err)
		}
		if again := s2.Spec(); again != canon {
			t.Fatalf("Spec not a fixed point: %q → %q", canon, again)
		}
		if len(s2.injs) != len(s1.injs) || s2.NumStations() != s1.NumStations() {
			t.Fatalf("round-trip changed shape: %d/%d injectors", len(s1.injs), len(s2.injs))
		}
		for slot := 0; slot < 20; slot++ {
			e1 := s1.Apply(slot)
			d1 := digest(e1)
			d2 := digest(s2.Apply(slot))
			if d1 != d2 {
				t.Fatalf("slot %d: original %+v vs canonical %+v (spec %q)", slot, d1, d2, spec)
			}
			if math.IsNaN(d1.capSum) || math.IsNaN(d1.delaySum) || math.IsNaN(d1.demand) ||
				math.IsInf(d1.delaySum, 0) || math.IsInf(d1.demand, 0) {
				t.Fatalf("slot %d: non-finite effect %+v (spec %q)", slot, d1, spec)
			}
		}
	})
}
