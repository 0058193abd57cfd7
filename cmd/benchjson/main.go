// Command benchjson converts `go test -bench` output on stdin into a JSON
// benchmark-trajectory file, so successive PRs can record comparable
// performance snapshots (BENCH_<pr>.json) next to the figure tables.
//
// Usage:
//
//	go test -run '^$' -bench=. -benchmem -benchtime 1x . | go run ./cmd/benchjson -pr 2 -out BENCH_2.json
//
// Standard columns (ns/op, B/op, allocs/op, MB/s) become typed fields; every
// other `value unit` pair — including the figure benches' custom per-policy
// delay metrics — lands in the "metrics" map keyed by unit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line (or, with -count > 1, the
// iteration-weighted merge of the repeated runs — see mergeDuplicates).
type Benchmark struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *float64           `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64           `json:"allocs_per_op,omitempty"`
	MBPerS      *float64           `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// Samples counts the result lines merged into this entry: the -count
	// value for repeated runs, 1 for a single run. Carried uniformly — older
	// BENCH files omitted it for single runs (and hence for every
	// metric-bearing benchmark, which ran without -count), which made
	// "how many runs back this number" unanswerable from the file alone.
	Samples int `json:"samples,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	PR         int         `json:"pr"`
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// cpuSuffix strips the trailing GOMAXPROCS marker (-8) go test appends.
var cpuSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output and collects benchmark lines plus the
// goos/goarch/cpu/pkg header fields.
func parse(r io.Reader) (*Report, error) {
	rep := &Report{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
			continue
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
			continue
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
			continue
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkFoo --- SKIP"
		}
		b := Benchmark{
			Name:       cpuSuffix.ReplaceAllString(strings.TrimPrefix(fields[0], "Benchmark"), ""),
			Iterations: iters,
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchjson: bad value %q in line %q", fields[i], line)
			}
			val := v
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = val
			case "B/op":
				b.BytesPerOp = &val
			case "allocs/op":
				b.AllocsPerOp = &val
			case "MB/s":
				b.MBPerS = &val
			default:
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = val
			}
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.Benchmarks = mergeDuplicates(rep.Benchmarks)
	return rep, nil
}

// mergeDuplicates coalesces repeated benchmark names (`go test -count N`
// emits one line per run) into one entry each: per-op values are averaged
// weighted by each run's iteration count, iterations are summed, and Samples
// records how many lines merged — so a BENCH file stays one row per
// benchmark and benchdiff compares like with like. First-seen order is kept.
func mergeDuplicates(in []Benchmark) []Benchmark {
	type accum struct {
		b       Benchmark
		weight  float64
		bytesW  float64
		allocsW float64
		mbW     float64
		metricW map[string]float64
	}
	var order []string
	accums := map[string]*accum{}
	for _, b := range in {
		w := float64(b.Iterations)
		if w <= 0 {
			w = 1
		}
		a := accums[b.Name]
		if a == nil {
			a = &accum{b: Benchmark{Name: b.Name}, metricW: map[string]float64{}}
			accums[b.Name] = a
			order = append(order, b.Name)
		}
		a.b.Samples++
		a.b.Iterations += b.Iterations
		a.b.NsPerOp += b.NsPerOp * w
		a.weight += w
		if b.BytesPerOp != nil {
			if a.b.BytesPerOp == nil {
				a.b.BytesPerOp = new(float64)
			}
			*a.b.BytesPerOp += *b.BytesPerOp * w
			a.bytesW += w
		}
		if b.AllocsPerOp != nil {
			if a.b.AllocsPerOp == nil {
				a.b.AllocsPerOp = new(float64)
			}
			*a.b.AllocsPerOp += *b.AllocsPerOp * w
			a.allocsW += w
		}
		if b.MBPerS != nil {
			if a.b.MBPerS == nil {
				a.b.MBPerS = new(float64)
			}
			*a.b.MBPerS += *b.MBPerS * w
			a.mbW += w
		}
		for k, v := range b.Metrics {
			if a.b.Metrics == nil {
				a.b.Metrics = map[string]float64{}
			}
			a.b.Metrics[k] += v * w
			a.metricW[k] += w
		}
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		a := accums[name]
		a.b.NsPerOp /= a.weight
		if a.b.BytesPerOp != nil {
			*a.b.BytesPerOp /= a.bytesW
		}
		if a.b.AllocsPerOp != nil {
			*a.b.AllocsPerOp /= a.allocsW
		}
		if a.b.MBPerS != nil {
			*a.b.MBPerS /= a.mbW
		}
		for k := range a.b.Metrics {
			a.b.Metrics[k] /= a.metricW[k]
		}
		out = append(out, a.b)
	}
	return out
}

func main() {
	pr := flag.Int("pr", 0, "PR number recorded in the report")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	rep, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rep.PR = *pr
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}
