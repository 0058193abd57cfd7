package l4e

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// newBenchCellPool provisions n daemon cells the way cmd/mecd does: one
// small independent scenario per cell, seeded seed+i.
func newBenchCellPool(b *testing.B, n int, seed int64, policy string) []*Cell {
	b.Helper()
	cells := make([]*Cell, n)
	for i := 0; i < n; i++ {
		scn, err := NewScenario(
			WithStations(12),
			WithSeed(seed+int64(i)),
			WithDemandsGiven(true),
		)
		if err != nil {
			b.Fatal(err)
		}
		cells[i], err = scn.NewCell(policy)
		if err != nil {
			b.Fatal(err)
		}
	}
	return cells
}

// BenchmarkDecisionServer64Cells measures the mecd serving layer at the
// acceptance scale: 64 concurrent cells closed-loop through the sharded
// worker pool with batched solves, reporting sustained decisions/second.
// The warm sub-benchmark is the served OL_GD, which carries its network-
// simplex basis across slots; fresh-solve runs the same pool solving every
// slot cold, so the ratio of their decisions/s is the serving-layer payoff
// of carrying solver state across slots. Cells outlive their traces via the
// horizon wrap, so repeated bench iterations keep advancing the same pool.
func BenchmarkDecisionServer64Cells(b *testing.B) {
	for _, mode := range []struct{ name, policy string }{
		{"fresh-solve", "OL_GD/fresh-solve"},
		{"warm", "OL_GD"},
	} {
		b.Run(mode.name, func(b *testing.B) {
			benchDecisionServer64Cells(b, mode.policy)
		})
	}
}

func benchDecisionServer64Cells(b *testing.B, policy string) {
	const (
		nCells   = 64
		slotsPer = 4
	)
	cells := newBenchCellPool(b, nCells, 1, policy)
	srv, err := NewDecisionServer(DecisionServerConfig{BatchMax: 16}, cells)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	decisions := 0
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < nCells; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for t := 0; t < slotsPer; t++ {
					for {
						_, err := srv.Decide(c, nil)
						if err == nil {
							break
						}
						if errors.Is(err, ErrServerBusy) {
							time.Sleep(50 * time.Microsecond)
							continue
						}
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		decisions += nCells * slotsPer
	}
	elapsed := b.Elapsed().Seconds()
	b.StopTimer()
	if elapsed > 0 {
		b.ReportMetric(float64(decisions)/elapsed, "decisions_per_s")
	}
	b.ReportMetric(nCells, "cells")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		b.Fatal(err)
	}
}
