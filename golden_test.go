package l4e

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// update rewrites the golden file with the current results instead of
// comparing against it:
//
//	go test -run TestGoldenScenario -update .
//
// Commit the regenerated file together with whatever intentional change
// shifted the numbers; the diff IS the review artifact.
var update = flag.Bool("update", false, "rewrite testdata golden files with current results")

// goldenEntry pins one policy's end-of-horizon results. Floats are stored as
// shortest-round-trip strings (strconv 'g', precision -1) so the comparison
// is exact to the last bit and the JSON diff stays readable.
type goldenEntry struct {
	Policy        string `json:"policy"`
	AvgDelayMS    string `json:"avg_delay_ms"`
	CumRegret     string `json:"cumulative_regret"`
	DegradedSlots int    `json:"degraded_slots"`
}

type goldenFile struct {
	Description string        `json:"description"`
	Stations    int           `json:"stations"`
	Slots       int           `json:"slots"`
	Seed        int64         `json:"seed"`
	Chaos       string        `json:"chaos"`
	ChaosSeed   int64         `json:"chaos_seed"`
	Policies    []goldenEntry `json:"policies"`
}

func fullPrec(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// goldenPolicies are the five paper policies the regression pin covers.
var goldenPolicies = []string{"OL_GD", "Greedy_GD", "Pri_GD", "OL_Reg", "OL_GAN"}

const goldenPath = "testdata/golden_scenario.json"

// TestGoldenScenario runs the five paper policies over one fixed seeded
// scenario — chaos schedule included, so the degradation ladder is exercised
// — and compares final mean delay, cumulative regret, and degraded-slot
// counts bit-for-bit against the committed golden file. Every source of
// randomness in the pipeline is seeded, so any drift here means the
// simulation semantics changed: either fix the regression or, if the change
// is intentional, regenerate with -update and commit the diff.
func TestGoldenScenario(t *testing.T) {
	want := goldenFile{
		Description: "end-to-end pin: five paper policies, fixed topology/workload/chaos, bit-stable",
		Stations:    15,
		Slots:       20,
		Seed:        7,
		Chaos:       "blackout:5:2,spike:0.05:3:2",
		ChaosSeed:   99,
	}
	scn, err := NewScenario(
		WithStations(want.Stations),
		WithSlots(want.Slots),
		WithSeed(want.Seed),
		WithDemandsGiven(true),
		WithChaos(want.Chaos),
		WithChaosSeed(want.ChaosSeed),
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range goldenPolicies {
		p, err := scn.NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := scn.RunWithRegret(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Regret == nil {
			t.Fatalf("%s: regret tracking not populated", name)
		}
		want.Policies = append(want.Policies, goldenEntry{
			Policy:        name,
			AvgDelayMS:    fullPrec(res.AvgDelayMS),
			CumRegret:     fullPrec(res.Regret.Cumulative()),
			DegradedSlots: res.DegradedSlots,
		})
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		buf, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", goldenPath)
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("no golden file (run `go test -run TestGoldenScenario -update .` once): %v", err)
	}
	var have goldenFile
	if err := json.Unmarshal(raw, &have); err != nil {
		t.Fatalf("corrupt golden file: %v", err)
	}
	if have.Stations != want.Stations || have.Slots != want.Slots ||
		have.Seed != want.Seed || have.Chaos != want.Chaos || have.ChaosSeed != want.ChaosSeed {
		t.Fatalf("golden scenario config drifted:\n have %+v\n want %+v\nregenerate with -update",
			have, want)
	}
	if len(have.Policies) != len(want.Policies) {
		t.Fatalf("golden covers %d policies, run produced %d", len(have.Policies), len(want.Policies))
	}
	for i, w := range want.Policies {
		h := have.Policies[i]
		if h.Policy != w.Policy {
			t.Errorf("policy %d: golden %q vs run %q", i, h.Policy, w.Policy)
			continue
		}
		if h.AvgDelayMS != w.AvgDelayMS {
			t.Errorf("%s: avg delay drifted\n golden: %s ms\n    run: %s ms%s",
				w.Policy, h.AvgDelayMS, w.AvgDelayMS, goldenHint(h.AvgDelayMS, w.AvgDelayMS))
		}
		if h.CumRegret != w.CumRegret {
			t.Errorf("%s: cumulative regret drifted\n golden: %s\n    run: %s%s",
				w.Policy, h.CumRegret, w.CumRegret, goldenHint(h.CumRegret, w.CumRegret))
		}
		if h.DegradedSlots != w.DegradedSlots {
			t.Errorf("%s: degraded slots %d in golden, %d in run", w.Policy, h.DegradedSlots, w.DegradedSlots)
		}
	}
	if t.Failed() {
		t.Log("if this change is intentional: go test -run TestGoldenScenario -update . && commit the diff")
	}
}

// goldenHint annotates a float mismatch with its magnitude so a last-bit
// wobble reads differently from a real behavioural shift.
func goldenHint(golden, run string) string {
	g, err1 := strconv.ParseFloat(golden, 64)
	r, err2 := strconv.ParseFloat(run, 64)
	if err1 != nil || err2 != nil || g == 0 {
		return ""
	}
	return fmt.Sprintf("\n  (relative drift %.2e)", (r-g)/g)
}

// TestGoldenScenarioIsBitStable reruns one golden policy and requires the
// exact same numbers within a process — the stronger precondition for the
// cross-run stability the golden file pins.
func TestGoldenScenarioIsBitStable(t *testing.T) {
	runOnce := func() (string, string) {
		scn, err := NewScenario(
			WithStations(15), WithSlots(12), WithSeed(7), WithDemandsGiven(true),
		)
		if err != nil {
			t.Fatal(err)
		}
		p, err := scn.NewPolicy("OL_GD")
		if err != nil {
			t.Fatal(err)
		}
		res, err := scn.RunWithRegret(p)
		if err != nil {
			t.Fatal(err)
		}
		return fullPrec(res.AvgDelayMS), fullPrec(res.Regret.Cumulative())
	}
	d1, r1 := runOnce()
	d2, r2 := runOnce()
	if d1 != d2 || r1 != r2 {
		t.Fatalf("same scenario, different numbers: delay %s vs %s, regret %s vs %s", d1, d2, r1, r2)
	}
}
