package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: github.com/mecsim/l4e
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolveLPFlow/fresh-8         	     100	    926904 ns/op	  224501 B/op	     430 allocs/op
BenchmarkSolveLPFlow/workspace-8     	     100	    723785 ns/op	     152 B/op	       1 allocs/op
BenchmarkFig3AvgDelay-8              	       1	1234567890 ns/op	        24.50 Greedy_GD_delay_ms	        18.25 OL_GD_delay_ms	 5000000 B/op	   60000 allocs/op
--- SKIP: BenchmarkSkipped
PASS
ok  	github.com/mecsim/l4e	12.3s
`

func TestParse(t *testing.T) {
	rep, err := parse(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q, want linux/amd64", rep.Goos, rep.Goarch)
	}
	if rep.Pkg != "github.com/mecsim/l4e" {
		t.Errorf("pkg = %q", rep.Pkg)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(rep.Benchmarks))
	}

	fresh := rep.Benchmarks[0]
	if fresh.Name != "SolveLPFlow/fresh" {
		t.Errorf("name = %q, want SolveLPFlow/fresh (GOMAXPROCS suffix stripped)", fresh.Name)
	}
	if fresh.Iterations != 100 || fresh.NsPerOp != 926904 {
		t.Errorf("fresh = %+v", fresh)
	}
	if fresh.BytesPerOp == nil || *fresh.BytesPerOp != 224501 {
		t.Errorf("fresh bytes/op = %v", fresh.BytesPerOp)
	}
	if fresh.AllocsPerOp == nil || *fresh.AllocsPerOp != 430 {
		t.Errorf("fresh allocs/op = %v", fresh.AllocsPerOp)
	}

	ws := rep.Benchmarks[1]
	if ws.AllocsPerOp == nil || *ws.AllocsPerOp != 1 {
		t.Errorf("workspace allocs/op = %v", ws.AllocsPerOp)
	}

	fig := rep.Benchmarks[2]
	if fig.Name != "Fig3AvgDelay" {
		t.Errorf("name = %q", fig.Name)
	}
	if got := fig.Metrics["OL_GD_delay_ms"]; got != 18.25 {
		t.Errorf("OL_GD_delay_ms = %v, want 18.25", got)
	}
	if got := fig.Metrics["Greedy_GD_delay_ms"]; got != 24.5 {
		t.Errorf("Greedy_GD_delay_ms = %v, want 24.5", got)
	}
	if fig.AllocsPerOp == nil || *fig.AllocsPerOp != 60000 {
		t.Errorf("fig allocs/op = %v", fig.AllocsPerOp)
	}
}

func TestMergeDuplicates(t *testing.T) {
	// Three -count runs of one benchmark: the merge is iteration-weighted, so
	// the heavy 200-iteration run dominates the means.
	input := `BenchmarkX-8 100 1000 ns/op 40 B/op 4 allocs/op 10 widgets/s
BenchmarkX-8 200 700 ns/op 10 B/op 1 allocs/op 40 widgets/s
BenchmarkX-8 100 1000 ns/op 40 B/op 4 allocs/op 10 widgets/s
BenchmarkY-8 50 500 ns/op
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("merged to %d benchmarks, want 2", len(rep.Benchmarks))
	}
	x := rep.Benchmarks[0]
	if x.Name != "X" || x.Samples != 3 || x.Iterations != 400 {
		t.Errorf("X merged = %+v, want 3 samples over 400 iterations", x)
	}
	// (100*1000 + 200*700 + 100*1000)/400 = 850.
	if x.NsPerOp != 850 {
		t.Errorf("X ns/op = %v, want iteration-weighted 850", x.NsPerOp)
	}
	if x.BytesPerOp == nil || *x.BytesPerOp != 25 {
		t.Errorf("X B/op = %v, want 25", x.BytesPerOp)
	}
	if x.AllocsPerOp == nil || *x.AllocsPerOp != 2.5 {
		t.Errorf("X allocs/op = %v, want 2.5", x.AllocsPerOp)
	}
	if got := x.Metrics["widgets/s"]; got != 25 {
		t.Errorf("X widgets/s = %v, want 25", got)
	}
	y := rep.Benchmarks[1]
	if y.Name != "Y" || y.Samples != 1 || y.NsPerOp != 500 {
		t.Errorf("Y = %+v, want untouched single run with samples=1", y)
	}
}

// TestSamplesCarriedUniformly pins the fix for the dropped-samples bug:
// metric-bearing single-run benchmarks (the DecisionServer64Cells shape in
// BENCH_8.json) must carry samples=1 just like -count>1 merges carry their
// run count, so every entry answers "how many runs back this number".
func TestSamplesCarriedUniformly(t *testing.T) {
	input := `BenchmarkDecisionServer64Cells/cold-8 15 1000000 ns/op 979 decisions_per_s 64 cells
BenchmarkSolveLPFlow/workspace-8 60 700 ns/op
BenchmarkSolveLPFlow/workspace-8 60 710 ns/op
BenchmarkSolveLPFlow/workspace-8 60 720 ns/op
`
	rep, err := parse(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range rep.Benchmarks {
		if b.Samples < 1 {
			t.Errorf("%s: samples = %d, want >= 1", b.Name, b.Samples)
		}
	}
	if got := rep.Benchmarks[0].Samples; got != 1 {
		t.Errorf("metric-bearing single run samples = %d, want 1", got)
	}
	if got := rep.Benchmarks[1].Samples; got != 3 {
		t.Errorf("merged run samples = %d, want 3", got)
	}
}

func TestParseBadValue(t *testing.T) {
	if _, err := parse(strings.NewReader("BenchmarkX 10 abc ns/op\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestParseEmpty(t *testing.T) {
	rep, err := parse(strings.NewReader("PASS\nok x 1s\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 0 {
		t.Errorf("parsed %d benchmarks from empty input", len(rep.Benchmarks))
	}
}
