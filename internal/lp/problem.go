// Package lp implements a pure-Go linear-programming solver: a two-phase
// revised primal simplex with bounded variables over a dense basis
// inverse or, from 128 rows up, a sparse LU factorization. It replaces
// the Gurobi LP calls of the paper's evaluation.
//
// The solver targets the problem shapes that arise in SPM — hundreds to
// a few thousand rows/columns with very sparse constraint matrices — and
// stores columns sparsely so pricing and pivoting cost is proportional
// to the number of nonzeros.
package lp

import (
	"fmt"
	"math"
	"sort"
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

// entry is one nonzero of the constraint matrix.
type entry struct {
	row int
	val float64
}

// Problem is an LP under construction: min/max c·x subject to row
// relations and variable bounds lo <= x <= hi (lo finite, hi may be +Inf).
//
// A Problem is not safe for concurrent use: Solve lazily builds (and
// caches) the compressed constraint matrix, so even read-only-looking
// concurrent Solve calls race. Give each goroutine its own Problem.
type Problem struct {
	sense Sense
	obj   []float64
	lo    []float64
	hi    []float64
	cols  [][]entry
	rel   []Rel
	rhs   []float64

	// matrix is the CSC view of cols: per-column row-sorted nonzero
	// lists in three flat arrays. It is built once on first Solve and
	// reused until AddTerm/AddVariable change the matrix — SetBounds
	// does not invalidate it, so branch & bound re-solves skip the
	// merge/sort entirely.
	matrix *csc
	// packed marks a Problem rebuilt with Reset: matrix is its only copy
	// of the constraint matrix and cols is not kept (AddTerm and
	// AddVariable rebuild cols from matrix first).
	packed bool
	// keepWork marks a Problem that was Reset: work holds its simplex
	// working arrays between cold solves, and Release returns them to
	// simplexPool.
	keepWork bool
	work     *simplex
	// builds counts Resets: a Basis captured before the last one reads
	// stale although the matrix header is the same object.
	builds int
	// sol, x and duals hold a Reset problem's solution, which its next
	// Solve rewrites.
	sol      Solution
	x, duals []float64
}

// csc is a compressed-sparse-column matrix: column j's nonzeros are
// rows[colPtr[j]:colPtr[j+1]] / vals[colPtr[j]:colPtr[j+1]], sorted by
// row with duplicates summed and exact zeros dropped.
type csc struct {
	colPtr []int32
	rows   []int32
	vals   []float64
}

// matrixCSC returns the cached CSC form of the constraint matrix,
// building it if needed.
func (p *Problem) matrixCSC() *csc {
	if p.matrix != nil {
		return p.matrix
	}
	nnz := 0
	for _, col := range p.cols {
		nnz += len(col)
	}
	m := &csc{
		colPtr: make([]int32, len(p.cols)+1),
		rows:   make([]int32, 0, nnz),
		vals:   make([]float64, 0, nnz),
	}
	for j := range p.cols {
		for _, e := range p.mergedColumn(j) {
			m.rows = append(m.rows, int32(e.row))
			m.vals = append(m.vals, e.val)
		}
		m.colPtr[j+1] = int32(len(m.rows))
	}
	p.matrix = m
	return m
}

// NewProblem creates an empty problem with the given sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// Reset empties p for a rebuild under sense and keeps its storage, so
// that a model rebuilt round after round (MAA's RL-SPM relaxation) is
// written into the arrays of its last build. A Reset problem is built
// column-major: rows with AddConstraint, then each column whole with
// AppendColumn, which writes straight into the compressed matrix — no
// per-term lists and no merge on the first Solve. It also keeps its
// simplex working arrays from one cold solve to the next instead of
// returning them to the shared pool (a warm handle's arrays come back to
// it when the handle is dropped); Release returns them. Its Solution,
// with X and Duals, is its own too and its next Solve rewrites it, so a
// caller that keeps any of it past that copies it out. A Reset problem
// is an ordinary Problem otherwise: AddTerm and AddVariable still work
// on it.
func (p *Problem) Reset(sense Sense) {
	p.sense = sense
	p.obj, p.lo, p.hi = p.obj[:0], p.lo[:0], p.hi[:0]
	p.rel, p.rhs = p.rel[:0], p.rhs[:0]
	p.cols = nil
	if m := p.matrix; m != nil {
		m.colPtr, m.rows, m.vals = append(m.colPtr[:0], 0), m.rows[:0], m.vals[:0]
	} else {
		p.matrix = &csc{colPtr: []int32{0}}
	}
	p.builds++
	p.packed, p.keepWork = true, true
}

// Release returns the simplex working arrays a Reset problem keeps
// between solves to the shared pool. p stays usable; its next solve
// takes pooled arrays.
func (p *Problem) Release() {
	if p.work != nil {
		p.work.release()
		p.work = nil
	}
}

// unpack rebuilds the per-column term lists of a Reset problem from its
// compressed matrix, before AddTerm or AddVariable edits them.
func (p *Problem) unpack() {
	mat := p.matrix
	p.cols = p.cols[:0]
	for j := range p.obj {
		col := make([]entry, 0, mat.colPtr[j+1]-mat.colPtr[j])
		for q := mat.colPtr[j]; q < mat.colPtr[j+1]; q++ {
			col = append(col, entry{row: int(mat.rows[q]), val: mat.vals[q]})
		}
		p.cols = append(p.cols, col)
	}
	p.packed = false
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.obj) }

// AddVariable adds a variable with objective coefficient obj and bounds
// [lo, hi], returning its column index. lo must be finite and <= hi; hi
// may be math.Inf(1). The name is used in error messages only.
func (p *Problem) AddVariable(obj, lo, hi float64, name string) (int, error) {
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, -1) {
		return 0, fmt.Errorf("lp: variable %q: invalid bounds [%v, %v]", name, lo, hi)
	}
	if lo > hi {
		return 0, fmt.Errorf("lp: variable %q: lower bound %v exceeds upper %v", name, lo, hi)
	}
	if p.packed {
		p.unpack()
	}
	j := len(p.obj)
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.cols = append(p.cols, nil)
	p.matrix = nil
	return j, nil
}

// AddConstraint adds an empty constraint "· rel rhs" and returns its row
// index. Populate it with AddTerm.
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

// AddTerm adds coef·x[col] to constraint row. Repeated calls for the
// same (row, col) accumulate.
func (p *Problem) AddTerm(row, col int, coef float64) error {
	if row < 0 || row >= len(p.rel) {
		return fmt.Errorf("lp: AddTerm: row %d out of range", row)
	}
	if col < 0 || col >= len(p.obj) {
		return fmt.Errorf("lp: AddTerm: column %d out of range", col)
	}
	if math.IsNaN(coef) || math.IsInf(coef, 0) {
		return fmt.Errorf("lp: AddTerm: invalid coefficient %v", coef)
	}
	if coef == 0 {
		return nil
	}
	if p.packed {
		p.unpack()
	}
	p.cols[col] = append(p.cols[col], entry{row: row, val: coef})
	p.matrix = nil
	return nil
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
// AddVariable apply.
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
// does not invalidate the cached CSC matrix — the constraint matrix is
// untouched — so incremental re-solves (warm-started alternation rounds,
// capacity shrinks) skip the merge/sort entirely. The same validity
// rules as AddConstraint apply.
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

// mergedColumn returns column j with duplicate rows summed and zeros
// dropped, sorted by row. A column whose rows already strictly ascend is
// returned as it is — the stored entries hold no zeros, and the model
// builders emit their columns in row order.
func (p *Problem) mergedColumn(j int) []entry {
	col := p.cols[j]
	ascending := true
	for k := 1; k < len(col) && ascending; k++ {
		ascending = col[k-1].row < col[k].row
	}
	if ascending {
		return col
	}
	sorted := make([]entry, len(col))
	copy(sorted, col)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].row < sorted[b].row })
	out := sorted[:0]
	for _, e := range sorted {
		if len(out) > 0 && out[len(out)-1].row == e.row {
			out[len(out)-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	final := out[:0]
	for _, e := range out {
		if e.val != 0 {
			final = append(final, e)
		}
	}
	return final
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
	a, b := p.matrixCSC(), q.matrixCSC()
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
