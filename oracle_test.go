package l4e

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// sameCellDecision compares a served decision with the in-process one bit
// for bit: slot, realised delay, assignment, and played delays.
func sameCellDecision(got, want *CellDecision) error {
	switch {
	case got.Slot != want.Slot:
		return fmt.Errorf("slot %d, served %d", got.Slot, want.Slot)
	case math.Float64bits(got.DelayMS) != math.Float64bits(want.DelayMS):
		return fmt.Errorf("delay %v, served %v", got.DelayMS, want.DelayMS)
	case !slices.Equal(got.Requests, want.Requests) || !slices.Equal(got.Stations, want.Stations):
		return fmt.Errorf("assignment differs from the served one")
	case len(got.PlayedDelays) != len(want.PlayedDelays):
		return fmt.Errorf("%d played delays, served %d", len(got.PlayedDelays), len(want.PlayedDelays))
	}
	for i, v := range got.PlayedDelays {
		if w, ok := want.PlayedDelays[i]; !ok || math.Float64bits(v) != math.Float64bits(w) {
			return fmt.Errorf("played delay of station %d differs", i)
		}
	}
	return nil
}

// TestServedMatchesInProcessCells is the contract a whole-history oracle
// replay of the daemon relies on. A durable DecisionServer serves 8 cells
// under bursty chaos, each slot a decide then an observe carrying the
// decision's played delays, and is killed and restored halfway through
// (Shutdown writes no state beyond syncing the WAL, so the restart recovers
// from exactly what a killed process leaves: the newest checkpoint plus the
// WAL tail). Every served decision must be bit-identical to what a fresh
// NewCell("OL_GD") cell produces when driven directly with the same
// checkpoint cadence.
func TestServedMatchesInProcessCells(t *testing.T) {
	const (
		cells = 8
		slots = 150
		every = 8
		spec  = "surge:0.05:3:4,regional:0.03:3"
	)
	newCell := func(i int) *Cell {
		scn, err := NewScenario(
			WithStations(20),
			WithSeed(610+int64(i)),
			WithDemandsGiven(true),
			WithChaos(spec),
			WithChaosSeed(4610+int64(i)),
		)
		if err != nil {
			t.Fatal(err)
		}
		c, err := scn.NewCell("OL_GD")
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	dir := t.TempDir()
	start := func() *DecisionServer {
		cs := make([]*Cell, cells)
		for i := range cs {
			cs[i] = newCell(i)
		}
		srv, err := NewDecisionServer(DecisionServerConfig{
			Shards: 2, StateDir: dir, CheckpointEvery: every,
		}, cs)
		if err != nil {
			t.Fatal(err)
		}
		<-srv.Recovered()
		return srv
	}

	served := make([][]*CellDecision, cells)
	srv := start()
	for k := 0; k < slots; k++ {
		if k == slots/2 {
			stopServer(t, srv)
			srv = start()
		}
		for c := 0; c < cells; c++ {
			d, err := srv.Decide(c, nil)
			if err != nil {
				t.Fatalf("cell %d decide %d: %v", c, k, err)
			}
			if err := srv.Observe(c, d.PlayedDelays, nil); err != nil {
				t.Fatalf("cell %d observe %d: %v", c, k, err)
			}
			served[c] = append(served[c], d)
		}
	}
	stopServer(t, srv)

	warm := 0
	for c := 0; c < cells; c++ {
		ref := newCell(c)
		for k, want := range served[c] {
			d, err := ref.Decide(nil)
			if err != nil {
				t.Fatalf("cell %d decide %d: %v", c, k, err)
			}
			if err := sameCellDecision(d, want); err != nil {
				t.Fatalf("cell %d slot %d: %v", c, k, err)
			}
			if d.WarmSolve {
				warm++
			}
			if (k+1)%every == 0 {
				if _, err := ref.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := ref.Observe(d.PlayedDelays, nil); err != nil {
				t.Fatalf("cell %d observe %d: %v", c, k, err)
			}
		}
	}
	if warm == 0 {
		t.Fatal("no slot warm-started; the check does not cover the carried basis")
	}
}
