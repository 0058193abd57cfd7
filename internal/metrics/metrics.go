// Package metrics provides the statistics and rendering helpers used by the
// experiment harness: summary statistics with confidence intervals over
// repeated topology draws (the paper averages each point over 80 topologies)
// and aligned-table / CSV rendering of figure series.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary holds basic statistics of a sample.
type Summary struct {
	// N is the total number of inputs, NaNs included.
	N int
	// NaNs counts NaN inputs. They are excluded from every statistic below
	// (a single NaN would otherwise poison the whole summary); callers that
	// treat NaN as a bug check this field.
	NaNs   int
	Mean   float64
	Stddev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the normal-approximation 95% confidence
	// interval of the mean (over the non-NaN count).
	CI95 float64
}

// Summarize computes summary statistics. An empty or all-NaN sample yields a
// Summary with zero statistics. NaN inputs are counted in NaNs and excluded;
// infinities are legitimate values and propagate (Mean and Stddev of a sample
// containing +Inf are +Inf/NaN by IEEE arithmetic, which the caller asked for).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	for _, x := range xs {
		if math.IsNaN(x) {
			s.NaNs++
		}
	}
	finite := s.N - s.NaNs
	if finite == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		s.Mean += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean /= float64(finite)
	if finite > 1 {
		ss := 0.0
		for _, x := range xs {
			if math.IsNaN(x) {
				continue
			}
			ss += (x - s.Mean) * (x - s.Mean)
		}
		s.Stddev = math.Sqrt(ss / float64(finite-1))
		s.CI95 = 1.96 * s.Stddev / math.Sqrt(float64(finite))
	}
	return s
}

// Percentile returns the q-th percentile (0..100) by linear interpolation.
// NaN inputs are rejected explicitly: NaN has no order, so sorting a sample
// containing one would silently misplace every other value. Infinities are
// ordered and therefore allowed (the percentile may itself be ±Inf).
func Percentile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("metrics: percentile of empty sample")
	}
	if q < 0 || q > 100 {
		return 0, fmt.Errorf("metrics: percentile %v outside [0,100]", q)
	}
	for i, x := range xs {
		if math.IsNaN(x) {
			return 0, fmt.Errorf("metrics: percentile input %d is NaN", i)
		}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// MovingMean returns the centered-window-free trailing moving average of xs
// with the given window (useful for smoothing per-slot delay series as the
// paper's figures do).
func MovingMean(xs []float64, window int) ([]float64, error) {
	if window < 1 {
		return nil, fmt.Errorf("metrics: window %d, need >= 1", window)
	}
	out := make([]float64, len(xs))
	sum := 0.0
	for i, x := range xs {
		sum += x
		if i >= window {
			sum -= xs[i-window]
		}
		n := window
		if i+1 < window {
			n = i + 1
		}
		out[i] = sum / float64(n)
	}
	return out, nil
}

// Series is one line of a figure: a label plus y-values over the shared
// x-axis.
type Series struct {
	Label  string
	Values []float64
}

// Table is a rendered experiment result: a shared x-axis plus several
// series, formatted as the rows the paper's figures plot.
type Table struct {
	// Title names the figure/panel (e.g. "Fig 3(a): average delay").
	Title string
	// XLabel and XValues define the shared x-axis.
	XLabel  string
	XValues []float64
	// Series are the plotted lines.
	Series []Series
}

// Validate checks the table's shape.
func (t *Table) Validate() error {
	for _, s := range t.Series {
		if len(s.Values) != len(t.XValues) {
			return fmt.Errorf("metrics: series %q has %d values for %d x-points", s.Label, len(s.Values), len(t.XValues))
		}
	}
	return nil
}

// Render formats the table with aligned columns.
func (t *Table) Render() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	// Header.
	headers := make([]string, 0, len(t.Series)+1)
	headers = append(headers, t.XLabel)
	for _, s := range t.Series {
		headers = append(headers, s.Label)
	}
	widths := make([]int, len(headers))
	rows := make([][]string, len(t.XValues))
	for r := range rows {
		row := make([]string, len(headers))
		row[0] = trimFloat(t.XValues[r])
		for c, s := range t.Series {
			row[c+1] = fmt.Sprintf("%.3f", s.Values[r])
		}
		rows[r] = row
	}
	for c, h := range headers {
		widths[c] = len(h)
		for _, row := range rows {
			if len(row[c]) > widths[c] {
				widths[c] = len(row[c])
			}
		}
	}
	writeRow := func(cells []string) {
		for c, cell := range cells {
			if c > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[c], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String(), nil
}

// CSV renders the table as comma-separated values with a header row.
func (t *Table) CSV() (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, s := range t.Series {
		b.WriteByte(',')
		b.WriteString(csvEscape(s.Label))
	}
	b.WriteByte('\n')
	for r := range t.XValues {
		fmt.Fprintf(&b, "%g", t.XValues[r])
		for _, s := range t.Series {
			fmt.Fprintf(&b, ",%g", s.Values[r])
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WelchTTest compares the means of two independent samples with unequal
// variances and returns the t statistic and (approximate) two-sided p-value
// via the normal approximation to the t distribution (adequate for the
// sample sizes the experiment harness produces). Used to report whether one
// policy's per-slot delays are significantly below another's.
func WelchTTest(a, b []float64) (tStat, pValue float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, fmt.Errorf("metrics: Welch t-test needs >= 2 samples per side (got %d, %d)", len(a), len(b))
	}
	sa, sb := Summarize(a), Summarize(b)
	if sa.NaNs > 0 || sb.NaNs > 0 {
		return 0, 0, fmt.Errorf("metrics: Welch t-test inputs contain NaN (%d, %d)", sa.NaNs, sb.NaNs)
	}
	va := sa.Stddev * sa.Stddev / float64(sa.N)
	vb := sb.Stddev * sb.Stddev / float64(sb.N)
	se := math.Sqrt(va + vb)
	if se == 0 {
		if sa.Mean == sb.Mean {
			return 0, 1, nil
		}
		return math.Inf(sign(sa.Mean - sb.Mean)), 0, nil
	}
	tStat = (sa.Mean - sb.Mean) / se
	// Two-sided p via the standard normal tail (t with the large Welch df is
	// close to normal for N >= ~20).
	pValue = 2 * normalTail(math.Abs(tStat))
	return tStat, pValue, nil
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// normalTail returns P(Z > z) for the standard normal.
func normalTail(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
