// Package spm translates scheduling instances into the paper's
// optimization problems and decodes solver output back into schedules:
//
//   - the relaxed RL-SPM linear program (minimize bandwidth cost with
//     every request served, fractional routing and bandwidth) used by MAA;
//   - the relaxed BL-SPM linear program (maximize revenue under fixed
//     link capacities, fractional acceptance/routing) used by TAA;
//   - the exact SPM and RL-SPM mixed-integer programs used by the
//     OPT(SPM) / OPT(RL-SPM) reference solutions.
package spm

import (
	"fmt"
	"math"
	"slices"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/solvectx"
)

// RelaxedRL is the optimal solution of the relaxed RL-SPM LP.
type RelaxedRL struct {
	// X[i][j] is the fractional routing of request i on its candidate
	// path j; rows sum to 1.
	X [][]float64
	// C[e] is the fractional charging bandwidth of link e.
	C []float64
	// Cost is the optimal relaxed bandwidth cost Σ_e u_e·C[e].
	Cost float64
}

// SolveRLRelaxation solves the relaxed RL-SPM for inst: every request
// must be (fractionally) served and bandwidth is continuous.
func SolveRLRelaxation(inst *sched.Instance, opts lp.Options) (*RelaxedRL, error) {
	var r RLSolver
	defer r.Release()
	return r.Solve(inst, opts)
}

// RLSolver solves relaxed RL-SPM LPs in storage it keeps from one solve
// to the next: each Solve rebuilds its instance's LP into the arrays of
// the last build (lp.Problem.Reset), the simplex runs in the working
// arrays of the last solve, and the result is read out into the arrays
// of the last result. Metis's MAA stage builds nearly the same LP every
// round, so a Metis solve allocates it about once. Every solve is still
// the cold solve of a freshly built LP, bit for bit. The zero value is
// ready to use; an RLSolver is not safe for concurrent use.
type RLSolver struct {
	p   lp.Problem
	b   lpBuild
	x   xRows
	rel RelaxedRL
}

// Solve builds and solves the relaxed RL-SPM of inst. The result is the
// solver's: its next Solve rewrites it.
func (r *RLSolver) Solve(inst *sched.Instance, opts lp.Options) (*RelaxedRL, error) {
	if err := r.b.build(&r.p, inst, rlLP, nil); err != nil {
		return nil, err
	}
	sol, err := r.p.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.StatusCanceled {
		return nil, solvectx.Canceled(opts.Ctx)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("spm: relaxed RL-SPM: %v", sol.Status)
	}
	r.rel = RelaxedRL{
		X:    r.x.read(sol.X, r.b.xCols, r.b.requests()),
		C:    append(r.rel.C[:0], sol.X[r.b.nx:]...),
		Cost: sol.Objective,
	}
	return &r.rel, nil
}

// Release returns the simplex working arrays the solver keeps between
// solves to lp's shared pool. The solver stays usable.
func (r *RLSolver) Release() { r.p.Release() }

// lpKind is one of the SPM linear programs lpBuild lays out.
type lpKind int

const (
	// rlLP is relaxed RL-SPM: serve every request at least bandwidth cost.
	rlLP lpKind = iota
	// blLP is relaxed BL-SPM: most revenue under capacities.
	blLP
	// spmLP is relaxed SPM: most revenue minus bandwidth cost.
	spmLP
)

// lpBuild lays out the SPM linear programs. It is the only SPM builder
// (the RL-SPM and BL-SPM relaxations, their models and the exact
// solvers all build through it) and keeps its scratch, and the column
// index it hands out, with the LP it builds.
type lpBuild struct {
	slots   int
	cellRow []int32 // (link, slot) cell → capacity row, or -1
	nx      int     // routing columns; link e's bandwidth column is nx+e
	cols    []int   // 0, 1, 2, …, one per column
	xCols   [][]int // xCols[i][j] is the column of x[i][j], a view of cols
	links   []int   // one path's links, ascending
	rows    []int   // one column's rows
	vals    []float64
}

// requests lists the requests of the last build, 0, 1, …, K−1: a
// prefix of cols, since every request has a routing column.
func (b *lpBuild) requests() []int { return b.cols[:len(b.xCols)] }

// build writes the SPM LP of the given kind for inst into p, over p's
// and b's storage from the last build. All of them share one layout:
//
//	columns  x[i][j] request by request (column Σ_{i'<i} paths(i') + j),
//	         0 ≤ x ≤ 1; then, except in BL-SPM, one bandwidth column
//	         c_e ≥ 0 per link
//	rows     one per request (row i): Σ_j x[i][j] = 1 in RL-SPM (serve),
//	         ≤ 1 otherwise (accept); then one capacity row per (link,
//	         slot) cell some candidate path loads, in link-major order:
//	         Σ_{i,j ∋ e, t} r_i·x[i][j] − c_e ≤ 0, or, in BL-SPM,
//	         Σ r_i·x[i][j] ≤ caps[e][t] (0 for nil caps)
//	objective  RL-SPM  min Σ_e u_e·c_e
//	           BL-SPM  max Σ_{i,j} v_i·x[i][j]
//	           SPM     max Σ_{i,j} v_i·x[i][j] − Σ_e u_e·c_e
//
// One counting pass numbers the capacity rows; each column is then
// emitted whole, its rows ascending, into the compressed matrix.
func (b *lpBuild) build(p *lp.Problem, inst *sched.Instance, kind lpKind, caps [][]float64) error {
	net := inst.Network()
	slots := inst.Slots()
	k := inst.NumRequests()

	cells := net.NumLinks() * slots
	b.slots = slots
	b.cellRow = slices.Grow(b.cellRow[:0], cells)[:cells]
	clear(b.cellRow)
	b.nx = 0
	for i := 0; i < k; i++ {
		r := inst.Request(i)
		b.nx += inst.NumPaths(i)
		for j := 0; j < inst.NumPaths(i); j++ {
			for _, e := range inst.Path(i, j).Links {
				for t := r.Start; t <= r.End; t++ {
					b.cellRow[e*slots+t] = 1
				}
			}
		}
	}
	rows := k
	for c, used := range b.cellRow {
		if used == 0 {
			b.cellRow[c] = -1
			continue
		}
		b.cellRow[c] = int32(rows)
		rows++
	}
	n := b.nx
	if kind != blLP {
		n += net.NumLinks()
	}
	for j := len(b.cols); j < n; j++ {
		b.cols = append(b.cols, j)
	}
	b.xCols = slices.Grow(b.xCols[:0], k)[:k]
	for i, col := 0, 0; i < k; i++ {
		b.xCols[i] = b.cols[col : col+inst.NumPaths(i) : col+inst.NumPaths(i)]
		col += inst.NumPaths(i)
	}

	sense, rel, name := lp.Maximize, lp.LE, "accept"
	if kind == rlLP {
		sense, rel, name = lp.Minimize, lp.EQ, "serve"
	}
	p.Reset(sense)
	for i := 0; i < k; i++ {
		if _, err := p.AddConstraint(rel, 1, name); err != nil {
			return err
		}
	}
	for c, row := range b.cellRow {
		if row < 0 {
			continue
		}
		rhs := 0.0
		if caps != nil {
			rhs = caps[c/slots][c%slots]
		}
		if _, err := p.AddConstraint(lp.LE, rhs, "cap"); err != nil {
			return fmt.Errorf("spm: capacity of link %d slot %d: %w", c/slots, c%slots, err)
		}
	}
	for i := 0; i < k; i++ {
		r := inst.Request(i)
		obj := r.Value
		if kind == rlLP {
			obj = 0
		}
		for j := 0; j < inst.NumPaths(i); j++ {
			// Candidate paths are loopless, so each link (and each
			// capacity row) occurs once in the column.
			b.links = append(b.links[:0], inst.Path(i, j).Links...)
			slices.Sort(b.links)
			b.rows = append(b.rows[:0], i)
			b.vals = append(b.vals[:0], 1)
			for _, e := range b.links {
				for t := r.Start; t <= r.End; t++ {
					b.rows = append(b.rows, int(b.cellRow[e*slots+t]))
					b.vals = append(b.vals, r.Rate)
				}
			}
			if _, err := p.AppendColumn(obj, 0, 1, b.rows, b.vals, "x"); err != nil {
				return err
			}
		}
	}
	if kind == blLP {
		return nil
	}
	for e := 0; e < net.NumLinks(); e++ {
		b.rows, b.vals = b.rows[:0], b.vals[:0]
		for _, row := range b.cellRow[e*slots : (e+1)*slots] {
			if row >= 0 {
				b.rows = append(b.rows, int(row))
				b.vals = append(b.vals, -1)
			}
		}
		price := net.Link(e).Price
		if kind == spmLP {
			price = -price
		}
		if _, err := p.AppendColumn(price, 0, math.Inf(1), b.rows, b.vals, "c"); err != nil {
			return err
		}
	}
	return nil
}

// RelaxedBL is the optimal solution of the relaxed BL-SPM LP.
type RelaxedBL struct {
	// X[i][j] is the fractional acceptance of request i on path j;
	// rows sum to at most 1.
	X [][]float64
	// Revenue is the optimal relaxed service revenue.
	Revenue float64
}

// SolveBLRelaxation solves the relaxed BL-SPM for inst under the given
// integer link capacities (indexed by link id, constant across slots).
func SolveBLRelaxation(inst *sched.Instance, caps []int, opts lp.Options) (*RelaxedBL, error) {
	if len(caps) != inst.Network().NumLinks() {
		return nil, fmt.Errorf("spm: capacity vector has %d entries, want %d", len(caps), inst.Network().NumLinks())
	}
	return SolveBLRelaxationVar(inst, ExpandCaps(inst, caps), opts)
}

// SolveBLRelaxationVar is SolveBLRelaxation with time-varying
// capacities: caps[e][t] bounds link e's load at slot t. This is the
// substrate of the online extension, where part of the capacity is
// already committed to earlier acceptances.
func SolveBLRelaxationVar(inst *sched.Instance, caps [][]float64, opts lp.Options) (*RelaxedBL, error) {
	if err := validateVarCaps(inst, caps); err != nil {
		return nil, err
	}
	var (
		p lp.Problem
		b lpBuild
		x xRows
	)
	defer p.Release()
	if err := b.build(&p, inst, blLP, caps); err != nil {
		return nil, err
	}
	sol, err := p.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.StatusCanceled {
		return nil, solvectx.Canceled(opts.Ctx)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("spm: relaxed BL-SPM: %v", sol.Status)
	}
	return &RelaxedBL{X: x.read(sol.X, b.xCols, b.requests()), Revenue: sol.Objective}, nil
}

// ExpandCaps broadcasts a per-link capacity vector to the per-(link,
// slot) form used by the time-varying solvers.
func ExpandCaps(inst *sched.Instance, caps []int) [][]float64 {
	return ExpandCapsInto(nil, inst, caps)
}

// ExpandCapsInto is ExpandCaps written into buf's arrays.
func ExpandCapsInto(buf [][]float64, inst *sched.Instance, caps []int) [][]float64 {
	out := sched.ZeroLoads(buf, len(caps), inst.Slots())
	for e, c := range caps {
		for t := range out[e] {
			out[e][t] = float64(c)
		}
	}
	return out
}

func validateVarCaps(inst *sched.Instance, caps [][]float64) error {
	if len(caps) != inst.Network().NumLinks() {
		return fmt.Errorf("spm: capacity matrix has %d links, want %d", len(caps), inst.Network().NumLinks())
	}
	for e := range caps {
		if len(caps[e]) != inst.Slots() {
			return fmt.Errorf("spm: capacity matrix link %d has %d slots, want %d", e, len(caps[e]), inst.Slots())
		}
		for t, c := range caps[e] {
			if c < 0 {
				return fmt.Errorf("spm: negative capacity %v on link %d slot %d", c, e, t)
			}
		}
	}
	return nil
}

// xRows is storage for routing rows read out of a solution.
type xRows struct {
	rows [][]float64
	flat []float64
}

// read fills r with the clamped routing rows of the given requests, row
// k holding request reqs[k]'s columns xCols[reqs[k]], and returns them.
// The rows share one backing array; the next read rewrites them.
func (r *xRows) read(x []float64, xCols [][]int, reqs []int) [][]float64 {
	n := 0
	for _, i := range reqs {
		n += len(xCols[i])
	}
	r.rows = slices.Grow(r.rows[:0], len(reqs))[:len(reqs)]
	r.flat = slices.Grow(r.flat[:0], n)
	for k, i := range reqs {
		for _, col := range xCols[i] {
			r.flat = append(r.flat, clamp01(x[col]))
		}
		r.rows[k] = r.flat[len(r.flat)-len(xCols[i]) : len(r.flat) : len(r.flat)]
	}
	return r.rows
}

// clamp01 clamps a routing value to [0, 1].
func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
