// Package lp implements a dense two-phase primal simplex solver for linear
// programs in general form. It is self-contained (stdlib only) and intended
// for the per-slot LP relaxation of the service-caching ILP (Eq. 3-7 of the
// paper) on small and medium instances, and as the correctness oracle for the
// faster flow-based solver used at experiment scale.
//
// Problems are stated as
//
//	minimize    c'x
//	subject to  A x {<=,=,>=} b,   0 <= x_j <= u_j
//
// Upper bounds are handled by adding explicit rows, which keeps the core
// tableau logic simple and easy to verify; the caching LPs produced by
// internal/caching only need a handful of bounded variables.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Sense is the direction of a linear constraint.
type Sense int

// Constraint senses. Values start at one so the zero value is invalid and
// accidentally unset constraints are caught by Validate.
const (
	LE Sense = iota + 1 // a'x <= b
	EQ                  // a'x == b
	GE                  // a'x >= b
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Constraint is a single linear constraint a'x (sense) b. Coefficients are
// stored sparsely as parallel slices.
type Constraint struct {
	Cols  []int
	Coefs []float64
	Sense Sense
	RHS   float64
}

// Problem is a linear program under construction. The zero value is an empty
// minimization problem; add variables and constraints, then call SolveWS.
type Problem struct {
	costs       []float64
	upperBounds []float64 // math.Inf(1) when unbounded above
	constraints []Constraint
	iterLimit   int // 0 = default pivot budget
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddBoundedVariable appends a variable with objective cost and upper bound
// upper (use math.Inf(1) for none), returning its column index. All variables
// are implicitly >= 0.
func (p *Problem) AddBoundedVariable(cost, upper float64) int {
	p.costs = append(p.costs, cost)
	p.upperBounds = append(p.upperBounds, upper)
	return len(p.costs) - 1
}

// AddConstraint appends the constraint sum_j coefs[j]*x[cols[j]] (sense) rhs.
// The cols/coefs slices are copied.
func (p *Problem) AddConstraint(cols []int, coefs []float64, sense Sense, rhs float64) error {
	if len(cols) != len(coefs) {
		return fmt.Errorf("lp: constraint has %d columns but %d coefficients", len(cols), len(coefs))
	}
	for _, c := range cols {
		if c < 0 || c >= len(p.costs) {
			return fmt.Errorf("lp: constraint references unknown column %d (have %d variables)", c, len(p.costs))
		}
	}
	p.constraints = append(p.constraints, Constraint{
		Cols:  append([]int(nil), cols...),
		Coefs: append([]float64(nil), coefs...),
		Sense: sense,
		RHS:   rhs,
	})
	return nil
}

// SetCost rewrites the objective cost of an existing variable in place — the
// per-slot fast path when a problem's structure is fixed and only the cost
// vector moves between solves.
func (p *Problem) SetCost(j int, cost float64) error {
	if j < 0 || j >= len(p.costs) {
		return fmt.Errorf("lp: SetCost on unknown column %d (have %d variables)", j, len(p.costs))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		return fmt.Errorf("lp: variable %d given non-finite cost %v", j, cost)
	}
	p.costs[j] = cost
	return nil
}

// SetConstraintRHS rewrites the right-hand side of constraint i in place.
func (p *Problem) SetConstraintRHS(i int, rhs float64) error {
	if i < 0 || i >= len(p.constraints) {
		return fmt.Errorf("lp: SetConstraintRHS on unknown constraint %d (have %d)", i, len(p.constraints))
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return fmt.Errorf("lp: constraint %d given non-finite RHS %v", i, rhs)
	}
	p.constraints[i].RHS = rhs
	return nil
}

// SetIterLimit caps the simplex pivot budget of subsequent solves on this
// problem; 0 restores the default budget of 50*(rows+cols+10). Exhausting the
// budget surfaces as ErrIterLimit, which callers with a per-slot solve budget
// treat as a signal to fall back rather than a hard failure.
func (p *Problem) SetIterLimit(n int) error {
	if n < 0 {
		return fmt.Errorf("lp: SetIterLimit(%d) is negative", n)
	}
	p.iterLimit = n
	return nil
}

// ConstraintCoefs returns the live coefficient slice of constraint i for
// in-place rewriting. The column pattern (Cols) stays fixed; callers may only
// change the values. The slice is invalidated by AddConstraint.
func (p *Problem) ConstraintCoefs(i int) []float64 {
	if i < 0 || i >= len(p.constraints) {
		return nil
	}
	return p.constraints[i].Coefs
}

// Validate checks structural well-formedness of the problem.
func (p *Problem) Validate() error {
	for i, con := range p.constraints {
		if con.Sense != LE && con.Sense != EQ && con.Sense != GE {
			return fmt.Errorf("lp: constraint %d has invalid sense %d", i, int(con.Sense))
		}
		for _, v := range con.Coefs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lp: constraint %d has non-finite coefficient", i)
			}
		}
		if math.IsNaN(con.RHS) || math.IsInf(con.RHS, 0) {
			return fmt.Errorf("lp: constraint %d has non-finite RHS", i)
		}
	}
	for j, c := range p.costs {
		if math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("lp: variable %d has non-finite cost", j)
		}
		if u := p.upperBounds[j]; math.IsNaN(u) || u < 0 {
			return fmt.Errorf("lp: variable %d has invalid upper bound %v", j, u)
		}
	}
	return nil
}

// Status describes the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64
	// Iterations is the total simplex pivot count across both phases.
	Iterations int
	// Phase1Iterations is the pivots spent driving artificials out
	// (feasibility search); Iterations - Phase1Iterations is the phase-2
	// optimisation effort. Exposed for observability: a high phase-1 share
	// means the instance is feasibility-hard, not optimisation-hard.
	Phase1Iterations int
}

// Errors returned by SolveWS.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrIterLimit  = errors.New("lp: simplex iteration limit reached")
)

const (
	// _eps is the feasibility/optimality tolerance of the solver.
	_eps = 1e-9
	// _pivotEps guards against numerically tiny pivots.
	_pivotEps = 1e-11
)

// Workspace owns the tableau storage (constraint matrix, RHS, reduced-cost
// and basis arrays) so repeated solves of same-shaped problems reuse one
// allocation instead of re-making m*width floats per solve. Buffers grow to
// the largest problem seen and are then reused. A Workspace is not safe for
// concurrent use, and Solution.X from SolveWS aliases workspace memory —
// it is valid only until the next SolveWS call on the same workspace.
type Workspace struct {
	t tableau
}

// NewWorkspace returns an empty workspace; buffers grow on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// SolveWS runs two-phase primal simplex and returns the optimal solution.
// A nil error implies Status == StatusOptimal. The tableau lives in the
// caller-owned workspace; a nil workspace allocates fresh buffers. Every
// solve rebuilds the tableau and runs both phases with its own pivot budget,
// so the pivot sequence is independent of the workspace and results are
// bit-identical either way.
func (p *Problem) SolveWS(ws *Workspace) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t, err := newTableau(p, ws)
	if err != nil {
		return nil, err
	}
	return t.solve()
}

// tableau is the dense standard-form representation used by the solver:
// rows augmented with slack/surplus and artificial columns.
type tableau struct {
	m, n int // constraint rows, structural+slack columns (before artificials)
	nArt int // artificial columns
	// a is (m) x (n + nArt) row-major; b is length m.
	a []float64
	b []float64
	// costs over structural columns only (length nStruct).
	costs   []float64
	nStruct int
	basis   []int // basis[i] = column basic in row i
	maxIter int
	// scratch reused across solves when the tableau lives in a Workspace.
	rc []float64
	x  []float64
}

// growFloats returns buf resized to n, reusing its backing array when large
// enough and zeroing the active region.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func newTableau(p *Problem, ws *Workspace) (*tableau, error) {
	nStruct := len(p.costs)
	// Variable upper bounds expand into extra <= rows (each with a slack).
	nBound := 0
	for _, u := range p.upperBounds {
		if !math.IsInf(u, 1) {
			nBound++
		}
	}
	m := len(p.constraints) + nBound

	// Count slack/surplus columns.
	nSlack := nBound
	for _, con := range p.constraints {
		if con.Sense != EQ {
			nSlack++
		}
	}
	n := nStruct + nSlack

	var t *tableau
	if ws != nil {
		t = &ws.t
	} else {
		t = &tableau{}
	}
	t.m, t.n, t.nStruct, t.nArt = m, n, nStruct, 0

	// Worst-case one artificial per row. The matrix rows are built with +=
	// below, so the active region must start zeroed (growFloats guarantees it).
	width := n + m
	t.a = growFloats(t.a, m*width)
	t.b = growFloats(t.b, m)
	t.basis = growInts(t.basis, m)
	t.rc = growFloats(t.rc, width)
	t.costs = growFloats(t.costs, nStruct)
	copy(t.costs, p.costs)

	slackCol := nStruct
	artCol := n
	addRow := func(i int, cols []int, coefs []float64, sense Sense, rhs float64) {
		row := t.a[i*width : (i+1)*width]
		sign := 1.0
		// Normalise to non-negative RHS so artificials start feasible.
		if rhs < 0 {
			sign = -1.0
			rhs = -rhs
		}
		for k, c := range cols {
			row[c] += sign * coefs[k]
		}
		t.b[i] = rhs
		if sign < 0 {
			switch sense {
			case LE:
				sense = GE
			case GE:
				sense = LE
			}
		}
		switch sense {
		case LE:
			row[slackCol] = 1
			// Slack can start basic; no artificial needed.
			t.basis[i] = slackCol
			slackCol++
		case GE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
			t.nArt++
		case EQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
			t.nArt++
		}
	}
	boundCols := [1]int{}
	boundCoefs := [1]float64{1}
	i := 0
	for _, con := range p.constraints {
		addRow(i, con.Cols, con.Coefs, con.Sense, con.RHS)
		i++
	}
	for j, u := range p.upperBounds {
		if !math.IsInf(u, 1) {
			boundCols[0] = j
			addRow(i, boundCols[:], boundCoefs[:], LE, u)
			i++
		}
	}
	// Compact: artificial columns were allocated starting at n; artCol-n used.
	t.maxIter = 50 * (m + n + 10)
	if p.iterLimit > 0 {
		t.maxIter = p.iterLimit
	}
	return t, nil
}

func (t *tableau) width() int { return t.n + t.m }

// at returns a(ij) of the working matrix.
func (t *tableau) at(i, j int) float64 { return t.a[i*t.width()+j] }

func (t *tableau) set(i, j int, v float64) { t.a[i*t.width()+j] = v }

// pivot performs a Gauss-Jordan pivot on (row, col).
func (t *tableau) pivot(row, col int) {
	w := t.width()
	pr := t.a[row*w : (row+1)*w]
	pv := pr[col]
	inv := 1.0 / pv
	for j := range pr {
		pr[j] *= inv
	}
	t.b[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		r := t.a[i*w : (i+1)*w]
		f := r[col]
		if f == 0 {
			continue
		}
		for j := range r {
			r[j] -= f * pr[j]
		}
		t.b[i] -= f * t.b[row]
	}
	t.basis[row] = col
}

// reducedCosts computes the reduced-cost vector for the given objective over
// the columns [0, limit). obj maps column -> cost (0 for absent columns).
func (t *tableau) reducedCosts(obj func(col int) float64, limit int, out []float64) {
	// y_i = cost of basis in row i; reduced cost_j = c_j - sum_i y_i a_ij.
	for j := 0; j < limit; j++ {
		out[j] = obj(j)
	}
	for i := 0; i < t.m; i++ {
		cb := obj(t.basis[i])
		if cb == 0 {
			continue
		}
		w := t.width()
		row := t.a[i*w : i*w+limit]
		for j, v := range row {
			out[j] -= cb * v
		}
	}
}

// iterate runs primal simplex with the given objective restricted to columns
// [0, limit), until optimal. Uses Dantzig pricing with Bland fallback when
// degeneracy is detected (no objective progress for a stretch of pivots).
func (t *tableau) iterate(obj func(col int) float64, limit int) (Status, int, error) {
	rc := t.rc[:limit]
	iters := 0
	stall := 0
	lastObj := math.Inf(1)
	for {
		if iters >= t.maxIter {
			return StatusIterLimit, iters, ErrIterLimit
		}
		t.reducedCosts(obj, limit, rc)

		bland := stall > t.m+limit
		col := -1
		best := -_eps
		for j := 0; j < limit; j++ {
			if rc[j] < -_eps {
				if bland {
					col = j
					break
				}
				if rc[j] < best {
					best = rc[j]
					col = j
				}
			}
		}
		if col < 0 {
			return StatusOptimal, iters, nil
		}

		// Ratio test.
		row := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			aij := t.at(i, col)
			if aij > _pivotEps {
				ratio := t.b[i] / aij
				if ratio < bestRatio-_eps || (ratio < bestRatio+_eps && (row < 0 || t.basis[i] < t.basis[row])) {
					bestRatio = ratio
					row = i
				}
			}
		}
		if row < 0 {
			return StatusUnbounded, iters, ErrUnbounded
		}
		t.pivot(row, col)
		iters++

		cur := t.objectiveValue(obj)
		if cur < lastObj-_eps {
			stall = 0
			lastObj = cur
		} else {
			stall++
		}
	}
}

func (t *tableau) objectiveValue(obj func(col int) float64) float64 {
	v := 0.0
	for i := 0; i < t.m; i++ {
		v += obj(t.basis[i]) * t.b[i]
	}
	return v
}

func (t *tableau) solve() (*Solution, error) {
	totalIters := 0
	phase1Iters := 0

	// Phase 1: minimise sum of artificials.
	if t.nArt > 0 {
		artObj := func(col int) float64 {
			if col >= t.n {
				return 1
			}
			return 0
		}
		status, iters, err := t.iterate(artObj, t.width())
		totalIters += iters
		phase1Iters = iters
		if err != nil {
			if errors.Is(err, ErrUnbounded) {
				// Phase-1 objective is bounded below by 0; unbounded here
				// indicates numerical trouble. Report as infeasible.
				return &Solution{Status: StatusInfeasible, Iterations: totalIters}, ErrInfeasible
			}
			return &Solution{Status: status, Iterations: totalIters}, err
		}
		if t.objectiveValue(artObj) > 1e-7 {
			return &Solution{Status: StatusInfeasible, Iterations: totalIters}, ErrInfeasible
		}
		// Drive any remaining artificials out of the basis.
		for i := 0; i < t.m; i++ {
			if t.basis[i] < t.n {
				continue
			}
			pivoted := false
			for j := 0; j < t.n; j++ {
				if math.Abs(t.at(i, j)) > _pivotEps {
					t.pivot(i, j)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; leave the artificial basic at zero. It will
				// never re-enter because phase-2 pricing is limited to t.n.
				t.b[i] = 0
			}
		}
	}

	// Phase 2: minimise the true objective over structural+slack columns.
	obj := func(col int) float64 {
		if col < t.nStruct {
			return t.costs[col]
		}
		return 0
	}
	status, iters, err := t.iterate(obj, t.n)
	totalIters += iters
	if err != nil {
		return &Solution{Status: status, Iterations: totalIters}, err
	}

	t.x = growFloats(t.x, t.nStruct)
	x := t.x
	for i := 0; i < t.m; i++ {
		if t.basis[i] < t.nStruct {
			x[t.basis[i]] = t.b[i]
		}
	}
	return &Solution{
		Status:           StatusOptimal,
		Objective:        t.objectiveValue(obj),
		X:                x,
		Iterations:       totalIters,
		Phase1Iterations: phase1Iters,
	}, nil
}
