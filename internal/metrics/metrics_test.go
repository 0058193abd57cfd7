package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if s.N != 8 || s.Mean != 5 {
		t.Errorf("N=%d mean=%v, want 8, 5", s.N, s.Mean)
	}
	if math.Abs(s.Stddev-math.Sqrt(32.0/7)) > 1e-12 {
		t.Errorf("stddev = %v", s.Stddev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.CI95 <= 0 {
		t.Errorf("CI95 = %v", s.CI95)
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{3})
	if s.Mean != 3 || s.Stddev != 0 || s.CI95 != 0 {
		t.Errorf("single-sample summary = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4}, {10, 1.4},
	}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("P%v = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("q > 100 accepted")
	}
	if v, err := Percentile([]float64{7}, 30); err != nil || v != 7 {
		t.Errorf("single-sample percentile = %v, %v", v, err)
	}
}

func TestMovingMean(t *testing.T) {
	out, err := MovingMean([]float64{2, 4, 6, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 5, 7}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if _, err := MovingMean(nil, 0); err == nil {
		t.Error("window 0 accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "Fig X",
		XLabel:  "slot",
		XValues: []float64{1, 2},
		Series: []Series{
			{Label: "OL_GD", Values: []float64{1.5, 2.5}},
			{Label: "Greedy_GD", Values: []float64{2.5, 3.5}},
		},
	}
	out, err := tab.Render()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Fig X") || !strings.Contains(out, "OL_GD") || !strings.Contains(out, "2.500") {
		t.Errorf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Errorf("got %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestTableValidate(t *testing.T) {
	tab := &Table{
		XValues: []float64{1, 2},
		Series:  []Series{{Label: "bad", Values: []float64{1}}},
	}
	if err := tab.Validate(); err == nil {
		t.Error("ragged table accepted")
	}
	if _, err := tab.Render(); err == nil {
		t.Error("Render accepted ragged table")
	}
	if _, err := tab.CSV(); err == nil {
		t.Error("CSV accepted ragged table")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		XLabel:  "n",
		XValues: []float64{50, 100},
		Series: []Series{
			{Label: "a,b", Values: []float64{1, 2}},
		},
	}
	out, err := tab.CSV()
	if err != nil {
		t.Fatal(err)
	}
	want := "n,\"a,b\"\n50,1\n100,2\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestPropertySummarizeBounds(t *testing.T) {
	f := func(seed int64, nByte uint8) bool {
		n := 1 + int(nByte)%50
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()*200 - 100
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		if s.Stddev < 0 {
			return false
		}
		// Percentiles are monotone.
		p25, err1 := Percentile(xs, 25)
		p75, err2 := Percentile(xs, 75)
		if err1 != nil || err2 != nil {
			return false
		}
		return p25 <= p75+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMovingMeanWithinRange(t *testing.T) {
	f := func(seed int64, wByte uint8) bool {
		w := 1 + int(wByte)%10
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 30)
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range xs {
			xs[i] = rng.Float64() * 50
			lo = math.Min(lo, xs[i])
			hi = math.Max(hi, xs[i])
		}
		out, err := MovingMean(xs, w)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWelchTTest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := make([]float64, 100)
	b := make([]float64, 100)
	for i := range a {
		a[i] = 10 + rng.NormFloat64()
		b[i] = 12 + rng.NormFloat64()
	}
	tStat, p, err := WelchTTest(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if tStat >= 0 {
		t.Errorf("t = %v, want negative (a < b)", tStat)
	}
	if p > 1e-6 {
		t.Errorf("p = %v, want tiny for a 2-sigma mean gap", p)
	}
	// Identical distributions: p should not be tiny.
	c := make([]float64, 100)
	d := make([]float64, 100)
	for i := range c {
		c[i] = 5 + rng.NormFloat64()
		d[i] = 5 + rng.NormFloat64()
	}
	_, p2, err := WelchTTest(c, d)
	if err != nil {
		t.Fatal(err)
	}
	if p2 < 0.01 {
		t.Errorf("p = %v for same-mean samples, want > 0.01", p2)
	}
	if _, _, err := WelchTTest([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("short sample accepted")
	}
	// Degenerate zero-variance equal means.
	_, p3, err := WelchTTest([]float64{3, 3}, []float64{3, 3})
	if err != nil || p3 != 1 {
		t.Errorf("degenerate equal: p=%v err=%v", p3, err)
	}
}

func TestSummarizeNaNInputs(t *testing.T) {
	nan := math.NaN()
	s := Summarize([]float64{1, nan, 3, nan, 5})
	if s.N != 5 || s.NaNs != 2 {
		t.Fatalf("N=%d NaNs=%d, want 5 and 2", s.N, s.NaNs)
	}
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("stats over non-NaN values: mean=%v min=%v max=%v", s.Mean, s.Min, s.Max)
	}
	if math.IsNaN(s.Stddev) || math.IsNaN(s.CI95) {
		t.Errorf("NaN leaked into Stddev=%v CI95=%v", s.Stddev, s.CI95)
	}

	all := Summarize([]float64{nan, nan})
	if all.N != 2 || all.NaNs != 2 {
		t.Fatalf("all-NaN: N=%d NaNs=%d", all.N, all.NaNs)
	}
	if all.Mean != 0 || all.Min != 0 || all.Max != 0 {
		t.Errorf("all-NaN sample must zero the statistics, got %+v", all)
	}
}

func TestSummarizeInfPropagates(t *testing.T) {
	s := Summarize([]float64{1, math.Inf(1), 3})
	if s.NaNs != 0 {
		t.Fatalf("Inf miscounted as NaN: %d", s.NaNs)
	}
	if !math.IsInf(s.Mean, 1) || !math.IsInf(s.Max, 1) || s.Min != 1 {
		t.Errorf("Inf must propagate: mean=%v min=%v max=%v", s.Mean, s.Min, s.Max)
	}
}

func TestPercentileRejectsNaN(t *testing.T) {
	if _, err := Percentile([]float64{1, math.NaN(), 3}, 50); err == nil {
		t.Error("NaN input accepted")
	}
}

func TestPercentileAllowsInf(t *testing.T) {
	v, err := Percentile([]float64{1, 2, math.Inf(1)}, 100)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("p100 of {1,2,+Inf}: v=%v err=%v", v, err)
	}
	v, err = Percentile([]float64{math.Inf(-1), 0, 1}, 0)
	if err != nil || !math.IsInf(v, -1) {
		t.Errorf("p0 of {-Inf,0,1}: v=%v err=%v", v, err)
	}
	// Interpolating between a finite value and +Inf is +Inf.
	v, err = Percentile([]float64{1, math.Inf(1)}, 75)
	if err != nil || !math.IsInf(v, 1) {
		t.Errorf("p75 of {1,+Inf}: v=%v err=%v", v, err)
	}
}

func TestWelchTTestRejectsNaN(t *testing.T) {
	if _, _, err := WelchTTest([]float64{1, math.NaN()}, []float64{1, 2}); err == nil {
		t.Error("NaN sample accepted")
	}
}
