// Package lp implements a pure-Go linear-programming solver: a two-phase
// revised primal simplex with bounded variables over a dense basis
// inverse or, from 128 rows up, a sparse LU factorization. It replaces
// the Gurobi LP calls of the paper's evaluation.
//
// The solver targets the problem shapes that arise in SPM — hundreds to
// a few thousand rows/columns with very sparse constraint matrices —
// whose path formulations are built one request-path column at a time.
// A Problem takes its rows, then each column whole, into a compressed
// sparse matrix, so pricing and pivoting cost is proportional to the
// number of nonzeros.
package lp

import (
	"fmt"
	"math"
)

// Sense is the optimization direction.
type Sense int

// Optimization directions.
const (
	Minimize Sense = iota + 1
	Maximize
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota + 1 // a·x <= b
	GE                // a·x >= b
	EQ                // a·x == b
)

// Status is the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal Status = iota + 1
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusCanceled reports that Options.Ctx was canceled (or its
	// deadline passed) before the solve finished. The Solution carries no
	// X; a warm-start Basis interrupted mid-repair stays usable.
	StatusCanceled
	// StatusNumeric reports a basis the solve could not repair. A pivot
	// whose basis does not factor is rejected and the solve goes on from
	// the basis before it; it ends here only if that basis no longer
	// factors either, or if every improving column is held out by such
	// a rejection. The Solution carries Iters and no X.
	StatusNumeric
)

// String returns the status name.
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
	case StatusCanceled:
		return "canceled"
	case StatusNumeric:
		return "numeric-breakdown"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is an LP: min/max c·x subject to row relations and variable
// bounds lo <= x <= hi (lo finite, hi may be +Inf). It is built column
// by column: rows with AddConstraint, then each variable together with
// its whole column with AppendColumn, which writes straight into the
// compressed constraint matrix, the problem's only copy of it. Rows and
// columns may be appended after a solve; Reset empties the problem for
// a rebuild into the same arrays. The zero Problem is ready for use
// once Reset.
//
// A Problem keeps its simplex working arrays from one solve to the next
// (a warm handle's arrays come back to it when the handle is dropped;
// Release returns them to the shared pool), and its Solution, with X and
// Duals, is its own: the next Solve rewrites it, so a caller that keeps
// any of it past that copies it out. A Problem is therefore not safe for
// concurrent use, not even by Solve calls alone. Give each goroutine its
// own Problem.
type Problem struct {
	sense Sense
	obj   []float64
	lo    []float64
	hi    []float64
	rel   []Rel
	rhs   []float64

	// matrix holds the constraint matrix, per-column row-sorted nonzero
	// lists in three flat arrays. AppendColumn extends it in place and
	// SetBounds/SetRHS leave it alone, so a warm basis captured on it
	// stays usable across them.
	matrix csc
	// work holds the simplex working arrays between solves.
	work *simplex
	// builds counts Resets: a Basis captured before the last one is
	// stale although its problem is the same object.
	builds int
	// sol, x and duals hold the solution, which the next Solve rewrites.
	sol      Solution
	x, duals []float64
}

// csc is a compressed-sparse-column matrix: column j's nonzeros are
// rows[colPtr[j]:colPtr[j+1]] / vals[colPtr[j]:colPtr[j+1]], sorted by
// row with exact zeros dropped.
type csc struct {
	colPtr []int32
	rows   []int32
	vals   []float64
}

// NewProblem creates an empty problem with the given sense.
func NewProblem(sense Sense) *Problem {
	p := new(Problem)
	p.Reset(sense)
	return p
}

// Reset empties p for a rebuild under sense and keeps its storage, so
// that a model rebuilt round after round (MAA's RL-SPM relaxation) is
// written into the arrays of its last build. A Basis captured before
// the Reset is stale: its next solve runs cold.
func (p *Problem) Reset(sense Sense) {
	p.sense = sense
	p.obj, p.lo, p.hi = p.obj[:0], p.lo[:0], p.hi[:0]
	p.rel, p.rhs = p.rel[:0], p.rhs[:0]
	m := &p.matrix
	m.colPtr, m.rows, m.vals = append(m.colPtr[:0], 0), m.rows[:0], m.vals[:0]
	p.builds++
}

// Release returns the simplex working arrays p keeps between solves to
// the shared pool. p stays usable; its next solve takes pooled arrays.
func (p *Problem) Release() {
	if p.work != nil {
		p.work.release()
		p.work = nil
	}
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// AddConstraint adds an empty constraint "· rel rhs" and returns its row
// index. The columns appended after it fill it in.
func (p *Problem) AddConstraint(rel Rel, rhs float64, name string) (int, error) {
	if rel != LE && rel != GE && rel != EQ {
		return 0, fmt.Errorf("lp: constraint %q: invalid relation %d", name, rel)
	}
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("lp: constraint %q: invalid rhs %v", name, rhs)
	}
	i := len(p.rel)
	p.rel = append(p.rel, rel)
	p.rhs = append(p.rhs, rhs)
	return i, nil
}

// Bounds returns the current bounds of variable j.
func (p *Problem) Bounds(j int) (lo, hi float64) { return p.lo[j], p.hi[j] }

// ObjectiveValue returns c·x in the problem's original sense for an
// arbitrary point x (len(x) must be NumVariables()). It does not check
// feasibility.
func (p *Problem) ObjectiveValue(x []float64) float64 {
	var obj float64
	for j, c := range p.obj {
		obj += c * x[j]
	}
	return obj
}

// SetBounds replaces variable j's bounds. It is used by branch & bound
// to tighten bounds per search node; the same validity rules as
// AppendColumn apply.
func (p *Problem) SetBounds(j int, lo, hi float64) error {
	if j < 0 || j >= len(p.obj) {
		return fmt.Errorf("lp: SetBounds: column %d out of range", j)
	}
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, -1) {
		return fmt.Errorf("lp: SetBounds: invalid bounds [%v, %v]", lo, hi)
	}
	if lo > hi {
		return fmt.Errorf("lp: SetBounds: lower bound %v exceeds upper %v", lo, hi)
	}
	p.lo[j] = lo
	p.hi[j] = hi
	return nil
}

// SetRHS replaces constraint row's right-hand side. Like SetBounds it
// leaves the constraint matrix alone, so incremental re-solves
// (warm-started alternation rounds, capacity shrinks) keep a captured
// basis. The same validity rules as AddConstraint apply.
func (p *Problem) SetRHS(row int, b float64) error {
	if row < 0 || row >= len(p.rel) {
		return fmt.Errorf("lp: SetRHS: row %d out of range", row)
	}
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return fmt.Errorf("lp: SetRHS: invalid rhs %v", b)
	}
	p.rhs[row] = b
	return nil
}

// Solution is the result of Problem.Solve.
type Solution struct {
	Status    Status
	Objective float64   // in the problem's original sense
	X         []float64 // one value per variable
	// Duals holds one shadow price per constraint at optimality:
	// Duals[i] ≈ ∂Objective/∂rhs[i] (in the problem's original sense).
	// Populated only for StatusOptimal.
	Duals []float64
	Iters int // simplex iterations performed
	// Warm reports whether the solve was completed by the warm-start
	// path (dual-simplex repair or primal cleanup of a reused basis)
	// rather than two-phase simplex from the all-slack basis.
	Warm bool
	// Basis is the warm-start handle holding the final basis; it is the
	// same handle passed via Options.Warm (nil when none was given).
	Basis *Basis
	// Degenerate reports that the optimum may not be a unique vertex: a
	// movable nonbasic column priced out at (near-)zero reduced cost, so
	// an alternative optimal basis with a different X can exist, and warm
	// and cold solves are free to disagree on which vertex they return.
	// Computed only for warm-capable optimal solves (Options.Warm != nil);
	// always false otherwise. Consumers that need the exact vertex a cold
	// solve would pick make the optimum unique in their model (an
	// objective tie-break above the simplex tolerance, as spm.BLSession does) and re-solve
	// cold when this is still set.
	Degenerate bool
	// Factorized reports whether the solve ran against the sparse
	// LU-factorized basis (problems of luAutoRows rows and up) rather
	// than a dense basis inverse.
	Factorized bool
}

// Diff describes the first difference between p and q as LPs, or
// returns "" when they are the same LP bit for bit: sense, objective,
// bounds, row relations, right-hand sides and the compressed constraint
// matrix (column pointers, row indices and values). Names are not
// compared. Model builders are tested against reference builds with it.
func (p *Problem) Diff(q *Problem) string {
	if p.sense != q.sense {
		return fmt.Sprintf("sense %d, other %d", p.sense, q.sense)
	}
	floats := []struct {
		what string
		a, b []float64
	}{{"objective", p.obj, q.obj}, {"lower bounds", p.lo, q.lo}, {"upper bounds", p.hi, q.hi}, {"rhs", p.rhs, q.rhs}}
	for _, f := range floats {
		if d := diffSlices(f.what, f.a, f.b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }); d != "" {
			return d
		}
	}
	if d := diffSlices("relations", p.rel, q.rel, func(x, y Rel) bool { return x == y }); d != "" {
		return d
	}
	a, b := &p.matrix, &q.matrix
	eq32 := func(x, y int32) bool { return x == y }
	if d := diffSlices("colPtr", a.colPtr, b.colPtr, eq32); d != "" {
		return d
	}
	if d := diffSlices("rows", a.rows, b.rows, eq32); d != "" {
		return d
	}
	return diffSlices("vals", a.vals, b.vals, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func diffSlices[T any](what string, a, b []T, eq func(x, y T) bool) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%s: %d entries, other %d", what, len(a), len(b))
	}
	for i := range a {
		if !eq(a[i], b[i]) {
			return fmt.Sprintf("%s[%d]: %v, other %v", what, i, a[i], b[i])
		}
	}
	return ""
}
