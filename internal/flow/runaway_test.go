package flow

import (
	"bufio"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// loadGraphFixture reads a graph written as a header line "n s t want"
// followed by one "from to capacity cost" line per edge, floats in
// shortest round-trip form.
func loadGraphFixture(t *testing.T, path string) (g *Graph, s, snk int, want float64) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var rows [][]string
	for sc.Scan() {
		rows = append(rows, strings.Fields(sc.Text()))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	num := func(field string) float64 {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	hdr := rows[0]
	g = NewGraph(int(num(hdr[0])))
	s, snk, want = int(num(hdr[1])), int(num(hdr[2])), num(hdr[3])
	for _, r := range rows[1:] {
		mustEdge(t, g, int(num(r[0])), int(num(r[1])), num(r[2]), num(r[3]))
	}
	return g, s, snk, want
}

// TestSSPSettlesEachNodeOnce replays the flow graph of one caching slot (a
// bursty-shaped cell: scenario seed 710, 30 stations, chaos
// surge:0.05:3:4,regional:0.03:3 with chaos seed 4710, slot 14). After 76
// augmentations its smallest residual reduced cost is -9.9e-10: inside the
// per-edge tolerance, yet a residual cycle of such edges sums below -_eps.
// A Dijkstra that re-relaxes settled nodes laps that cycle forever and grows
// its heap until the process runs out of memory. SSP must finish and agree
// with the network simplex.
func TestSSPSettlesEachNodeOnce(t *testing.T) {
	g, s, snk, want := loadGraphFixture(t, "testdata/ssp_runaway.txt")
	if g.n != 92 || len(g.edges)/2 != 1890 {
		t.Fatalf("fixture has %d nodes, %d edges; want 92, 1890", g.n, len(g.edges)/2)
	}
	ssp, err := sspSolve(g, s, snk, want)
	if err != nil {
		t.Fatal(err)
	}
	spx, err := g.MinCostFlow(s, snk, want, NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ssp.Flow-want) > 1e-6 {
		t.Errorf("SSP routed %v of %v", ssp.Flow, want)
	}
	if rel := math.Abs(ssp.Cost-spx.Cost) / math.Max(1, math.Abs(spx.Cost)); rel > 1e-9 {
		t.Errorf("SSP cost %.17g, simplex %.17g: relative gap %.3g > 1e-9", ssp.Cost, spx.Cost, rel)
	}
}
