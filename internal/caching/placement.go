package caching

import "sort"

// This file is the one home of integral placement: the greedy placer behind
// the ladder's greedy rung, the simulator's fallback and the Pri_GD baseline,
// the shed rule every placer and repair step falls back on, and the
// deterministic rounding of a relaxed solution.

// LargestFirst returns the request indices in descending volume order, ties
// kept in index order: the placement order of the ladder's greedy rung.
func (p *Problem) LargestFirst() []int {
	order := make([]int, len(p.Requests))
	for l := range order {
		order[l] = l
	}
	sort.SliceStable(order, func(a, b int) bool {
		return p.Requests[order[a]].Volume > p.Requests[order[b]].Volume
	})
	return order
}

// GreedyAssign places the requests in the given order, each on the station
// minimising its estimated marginal cost (AssignCost, plus instantiation when
// the service is not yet cached there) among stations with residual
// capacity; ties go to the lowest station index. A request that no station
// can host within capacity is placed by ShedStation instead — placement never
// fails, Evaluate prices the overload — and counted in shed. order lists each
// request index once.
func (p *Problem) GreedyAssign(order []int) (a *Assignment, shed int) {
	a = &Assignment{BS: make([]int, len(p.Requests))}
	load := make([]float64, p.NumStations)
	cached := make(map[[2]int]bool)
	for _, l := range order {
		demand := p.Requests[l].Volume * p.CUnit
		k := p.Requests[l].Service
		best, bestCost := -1, 0.0
		for i := 0; i < p.NumStations; i++ {
			if load[i]+demand > p.CapacityMHz[i]+1e-9 {
				continue
			}
			c := p.AssignCost(l, i)
			if !cached[[2]int{k, i}] {
				c += p.InstDelayMS[i][k]
			}
			if best < 0 || c < bestCost {
				best, bestCost = i, c
			}
		}
		if best < 0 {
			best = p.ShedStation(load, l)
			shed++
		}
		a.BS[l] = best
		load[best] += demand
		cached[[2]int{k, best}] = true
	}
	return a, shed
}

// ShedStation picks the least-bad station for request l when nothing can
// absorb it under the per-station loads in load: the lowest relative load
// among stations with any capacity or, in a total blackout, the station with
// the lowest assignment cost. It always returns a valid station index.
func (p *Problem) ShedStation(load []float64, l int) int {
	best, bestRel := -1, 0.0
	for i := 0; i < p.NumStations; i++ {
		if p.CapacityMHz[i] <= 0 {
			continue
		}
		if rel := load[i] / p.CapacityMHz[i]; best < 0 || rel < bestRel {
			best, bestRel = i, rel
		}
	}
	if best >= 0 {
		return best
	}
	bestCost := 0.0
	for i := 0; i < p.NumStations; i++ {
		if c := p.AssignCost(l, i); best < 0 || c < bestCost {
			best, bestCost = i, c
		}
	}
	return best
}

// Round is the deterministic rounding of a relaxed solution: each request
// goes to the station carrying its largest x*_li, ties to the lowest index.
// The result may violate capacity; callers repair it.
func (f *Fractional) Round() *Assignment {
	a := &Assignment{BS: make([]int, len(f.X))}
	for l, row := range f.X {
		best, bestX := 0, -1.0
		for i, x := range row {
			if x > bestX {
				best, bestX = i, x
			}
		}
		a.BS[l] = best
	}
	return a
}
