// Command benchdiff compares two benchmark-trajectory files (BENCH_<pr>.json,
// written by cmd/benchjson) and flags regressions: ns/op or allocs/op up, or
// a throughput metric (decisions_per_s and friends) down, by more than a
// relative threshold. It is the gate every performance PR is judged with —
// run the old and new snapshots through it before claiming a win.
//
//	make bench-json PR=7
//	go run ./cmd/benchdiff BENCH_6.json BENCH_7.json
//
// The exit status is 1 when any regression crosses the threshold, so the
// command can gate locally; CI runs it as a non-blocking annotation step
// (-github rewrites findings as GitHub workflow annotations).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmark mirrors cmd/benchjson's schema (kept in sync by TestSchemaMatch
// over a committed BENCH file).
type benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	Samples     int                `json:"samples,omitempty"`
}

type report struct {
	PR         int         `json:"pr"`
	Benchmarks []benchmark `json:"benchmarks"`
}

// finding is one compared value: a regression, an improvement, or noise.
type finding struct {
	Bench  string
	Metric string // "ns/op", "allocs/op", or a metrics key
	Old    float64
	New    float64
	Delta  float64 // relative change, sign-adjusted so positive = worse
}

// String prints the raw relative change new/old-1, so a throughput rise
// reads positive even though its Delta is negative.
func (f finding) String() string {
	return fmt.Sprintf("%s %s: %s -> %s (%+.1f%%)",
		f.Bench, f.Metric, compact(f.Old), compact(f.New), 100*(f.New/f.Old-1))
}

// compact renders a value without trailing float noise.
func compact(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// higherIsBetter reports whether a custom metric is a rate where a DROP is
// the regression (throughput counters like decisions_per_s or MB/s-style
// "x/s" units), as opposed to the delay/ratio metrics where growth is worse
// but run-to-run variance is expected and not a serving regression.
func higherIsBetter(key string) bool {
	return strings.HasSuffix(key, "_per_s") || strings.HasSuffix(key, "/s")
}

// diff compares old vs new benchmark sets and splits findings into
// regressions (beyond threshold) and the rest (reported informationally).
func diff(oldRep, newRep *report, threshold float64) (regressions, improvements []finding, missing []string) {
	oldBy := map[string]benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	for _, nb := range newRep.Benchmarks {
		ob, ok := oldBy[nb.Name]
		if !ok {
			continue // new benchmark: nothing to compare
		}
		classify := func(f finding) {
			switch {
			case f.Delta > threshold:
				regressions = append(regressions, f)
			case f.Delta < -threshold:
				improvements = append(improvements, f)
			}
		}
		if ob.NsPerOp > 0 && nb.NsPerOp > 0 {
			classify(finding{nb.Name, "ns/op", ob.NsPerOp, nb.NsPerOp, nb.NsPerOp/ob.NsPerOp - 1})
		}
		if ob.AllocsPerOp != nil && nb.AllocsPerOp != nil && *ob.AllocsPerOp > 0 {
			// An absolute guard keeps 1 -> 2 allocs from tripping percentage
			// thresholds meant for large counts — still a doubling, so the
			// guard only waives sub-alloc jitter.
			if math.Abs(*nb.AllocsPerOp-*ob.AllocsPerOp) >= 1 {
				classify(finding{nb.Name, "allocs/op", *ob.AllocsPerOp, *nb.AllocsPerOp, *nb.AllocsPerOp / *ob.AllocsPerOp - 1})
			}
		}
		keys := make([]string, 0, len(nb.Metrics))
		for k := range nb.Metrics {
			if higherIsBetter(k) {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			ov, ok := ob.Metrics[k]
			if !ok || ov <= 0 {
				continue
			}
			// Sign-flip: for throughput, down is worse.
			classify(finding{nb.Name, k, ov, nb.Metrics[k], 1 - nb.Metrics[k]/ov})
		}
		delete(oldBy, nb.Name)
	}
	for name := range oldBy {
		missing = append(missing, name)
	}
	sort.Strings(missing)
	sort.Slice(regressions, func(i, j int) bool { return regressions[i].Delta > regressions[j].Delta })
	sort.Slice(improvements, func(i, j int) bool { return improvements[i].Delta < improvements[j].Delta })
	return regressions, improvements, missing
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &r, nil
}

func run(out io.Writer, args []string) (exit int, err error) {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	threshold := fs.Float64("threshold", 0.10, "relative change beyond which a delta is a regression/improvement")
	github := fs.Bool("github", false, "emit regressions as GitHub workflow ::warning annotations")
	fs.SetOutput(out)
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() != 2 {
		return 2, fmt.Errorf("usage: benchdiff [-threshold 0.10] [-github] OLD.json NEW.json")
	}
	oldRep, err := load(fs.Arg(0))
	if err != nil {
		return 2, err
	}
	newRep, err := load(fs.Arg(1))
	if err != nil {
		return 2, err
	}
	regressions, improvements, missing := diff(oldRep, newRep, *threshold)

	fmt.Fprintf(out, "benchdiff: %s (pr %d) -> %s (pr %d), threshold %.0f%%\n",
		fs.Arg(0), oldRep.PR, fs.Arg(1), newRep.PR, 100**threshold)
	for _, f := range regressions {
		if *github {
			fmt.Fprintf(out, "::warning title=bench regression::%s\n", f)
		} else {
			fmt.Fprintf(out, "REGRESSION  %s\n", f)
		}
	}
	for _, f := range improvements {
		fmt.Fprintf(out, "improvement %s\n", f)
	}
	if len(missing) > 0 {
		fmt.Fprintf(out, "missing in new: %s\n", strings.Join(missing, ", "))
	}
	if len(regressions) == 0 {
		fmt.Fprintf(out, "no regressions beyond %.0f%% (%d improvements)\n", 100**threshold, len(improvements))
		return 0, nil
	}
	fmt.Fprintf(out, "%d regressions beyond %.0f%%\n", len(regressions), 100**threshold)
	return 1, nil
}

func main() {
	exit, err := run(os.Stdout, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
	}
	os.Exit(exit)
}
