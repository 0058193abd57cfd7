package caching

import (
	"reflect"
	"testing"
)

// placementProblem is a one-service instance with CUnit 10 and instantiation
// delay 4 everywhere, so a request of volume v costs v*delay (+4 when the
// service is not yet cached at the station) and demands 10*v MHz.
func placementProblem(vols, caps, delays []float64) *Problem {
	p := &Problem{
		NumStations: len(caps),
		NumServices: 1,
		CapacityMHz: caps,
		CUnit:       10,
		UnitDelayMS: delays,
	}
	for l, v := range vols {
		p.Requests = append(p.Requests, RequestSpec{ID: l, Volume: v})
	}
	for range caps {
		p.InstDelayMS = append(p.InstDelayMS, []float64{4})
	}
	return p
}

func TestLargestFirstKeepsIndexOrderOnTies(t *testing.T) {
	p := placementProblem([]float64{1, 3, 3, 2}, []float64{100}, []float64{1})
	if got, want := p.LargestFirst(), []int{1, 2, 3, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("LargestFirst = %v, want %v", got, want)
	}
}

func TestGreedyAssignExact(t *testing.T) {
	ties := func() *Problem {
		return placementProblem([]float64{2, 2, 2}, []float64{40, 40, 40}, []float64{5, 5, 5})
	}
	outage := func() *Problem {
		return placementProblem([]float64{3, 2, 2, 2}, []float64{0, 50, 30}, []float64{1, 5, 10})
	}
	blackout := func() *Problem {
		p := placementProblem([]float64{1, 2}, []float64{0, 0, 0}, []float64{5, 3, 3})
		p.AccessLatencyMS = [][]float64{{0, 10, 0}, {0, 0, 0}} // request 1 ties stations 1 and 2
		return p
	}
	cases := []struct {
		name     string
		p        *Problem
		order    []int // nil: largest first
		want     []int
		wantShed int
	}{
		// Three equal stations with room for two requests each: cost ties go
		// to the lowest index, and the cached station wins until it is full.
		{"ties/largest-first", ties(), nil, []int{0, 0, 1}, 0},
		{"ties/explicit", ties(), []int{2, 1, 0}, []int{1, 0, 0}, 0},
		// Station 0 is down; demand (90 MHz) exceeds the survivors' 80 MHz,
		// so the last request placed is shed to the least relatively loaded
		// surviving station.
		{"outage/largest-first", outage(), nil, []int{1, 1, 2, 2}, 1},
		{"outage/explicit", outage(), []int{3, 2, 1, 0}, []int{2, 2, 1, 1}, 1},
		// Total blackout: every request is shed to its cheapest station by
		// AssignCost (access latency included), ties to the lowest index.
		{"blackout/largest-first", blackout(), nil, []int{2, 1}, 2},
		{"blackout/explicit", blackout(), []int{0, 1}, []int{2, 1}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatal(err)
			}
			order := tc.order
			if order == nil {
				order = tc.p.LargestFirst()
			}
			a, shed := tc.p.GreedyAssign(order)
			if !reflect.DeepEqual(a.BS, tc.want) || shed != tc.wantShed {
				t.Fatalf("GreedyAssign(%v) = %v shed %d, want %v shed %d", order, a.BS, shed, tc.want, tc.wantShed)
			}
		})
	}
}

func TestGreedyRungIsTheLargestFirstPlacer(t *testing.T) {
	p := placementProblem([]float64{3, 2, 2, 2}, []float64{0, 50, 30}, []float64{1, 5, 10})
	a, _ := p.GreedyAssign(p.LargestFirst())
	f := p.solveGreedy(NewWorkspace())
	if got := f.Round(); !reflect.DeepEqual(got.BS, a.BS) {
		t.Fatalf("greedy rung placed %v, placer %v", got.BS, a.BS)
	}
	if f.Y[0][0] != 0 || f.Y[0][1] != 1 || f.Y[0][2] != 1 {
		t.Fatalf("greedy rung Y = %v, want the instances of %v", f.Y, a.BS)
	}
}

func TestRoundTakesArgmaxLowestIndexOnTies(t *testing.T) {
	f := &Fractional{X: [][]float64{{0.2, 0.5, 0.3}, {0.5, 0, 0.5}, {0, 0, 0}}}
	if got, want := f.Round().BS, []int{1, 0, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Round = %v, want %v", got, want)
	}
}
