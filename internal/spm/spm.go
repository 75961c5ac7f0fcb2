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
// the last build (lp.Problem.Reset), and the simplex runs in the working
// arrays of the last solve. Metis's MAA stage builds nearly the same LP
// every round, so a Metis solve allocates it about once. Every solve is
// still the cold solve of a freshly built LP, bit for bit. The zero
// value is ready to use; an RLSolver is not safe for concurrent use.
type RLSolver struct {
	p lp.Problem
	b rlBuild
}

// Solve builds and solves the relaxed RL-SPM of inst. The result owns
// its arrays; nothing in it aliases the solver's storage.
func (r *RLSolver) Solve(inst *sched.Instance, opts lp.Options) (*RelaxedRL, error) {
	if err := r.b.build(&r.p, inst); err != nil {
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
	nx := len(sol.X) - inst.Network().NumLinks()
	return &RelaxedRL{
		X:    extractX(sol.X, inst),
		C:    append([]float64(nil), sol.X[nx:]...),
		Cost: sol.Objective,
	}, nil
}

// Release returns the simplex working arrays the solver keeps between
// solves to lp's shared pool. The solver stays usable.
func (r *RLSolver) Release() { r.p.Release() }

// rlBuild is the scratch of buildRL, kept with the LP it builds.
type rlBuild struct {
	cellRow []int32   // (link, slot) cell → capacity row, or -1
	links   []int     // one path's links, ascending
	rows    []int     // one column's rows
	vals    []float64 // and its coefficients
}

// build writes the relaxed RL-SPM LP of inst into p, over p's and b's
// storage from the last build:
//
//	min Σ_e u_e·c_e  s.t.  Σ_j x[i][j] = 1              per request i
//	                       Σ_{i,j ∋ e, t} r_i·x[i][j] − c_e ≤ 0   per (e, t)
//	                       0 ≤ x ≤ 1,  c ≥ 0
//
// Columns are the routing variables request by request (x[i][j] is
// column Σ_{i'<i} paths(i') + j), then one bandwidth column per link.
// Rows are the serve rows (row i for request i), then one capacity row
// per (link, slot) pair some candidate path loads, in link-major order.
// One counting pass numbers the capacity rows; each column is then
// emitted whole, its rows ascending, into the compressed matrix. This is
// the only RL-SPM builder: RLSolver, RLModel and SolveExactRL use it.
func (b *rlBuild) build(p *lp.Problem, inst *sched.Instance) error {
	net := inst.Network()
	slots := inst.Slots()
	k := inst.NumRequests()

	cells := net.NumLinks() * slots
	b.cellRow = slices.Grow(b.cellRow[:0], cells)[:cells]
	clear(b.cellRow)
	for i := 0; i < k; i++ {
		r := inst.Request(i)
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

	p.Reset(lp.Minimize)
	for i := 0; i < rows; i++ {
		rel, rhs, name := lp.LE, 0.0, "cap"
		if i < k {
			rel, rhs, name = lp.EQ, 1, "serve"
		}
		if _, err := p.AddConstraint(rel, rhs, name); err != nil {
			return err
		}
	}
	for i := 0; i < k; i++ {
		r := inst.Request(i)
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
			if _, err := p.AppendColumn(0, 0, 1, b.rows, b.vals, "x"); err != nil {
				return err
			}
		}
	}
	for e := 0; e < net.NumLinks(); e++ {
		b.rows, b.vals = b.rows[:0], b.vals[:0]
		for _, row := range b.cellRow[e*slots : (e+1)*slots] {
			if row >= 0 {
				b.rows = append(b.rows, int(row))
				b.vals = append(b.vals, -1)
			}
		}
		if _, err := p.AppendColumn(net.Link(e).Price, 0, math.Inf(1), b.rows, b.vals, "c"); err != nil {
			return err
		}
	}
	return nil
}

// rlColumns returns the column layout of build's LP for inst: xCols[i][j]
// is the column of x[i][j] and cCols[e] the bandwidth column of link e.
func rlColumns(inst *sched.Instance) (xCols [][]int, cCols []int) {
	xCols = make([][]int, inst.NumRequests())
	col := 0
	for i := range xCols {
		xCols[i] = make([]int, inst.NumPaths(i))
		for j := range xCols[i] {
			xCols[i][j] = col
			col++
		}
	}
	cCols = make([]int, inst.Network().NumLinks())
	for e := range cCols {
		cCols[e] = col + e
	}
	return xCols, cCols
}

// RelaxedBL is the optimal solution of the relaxed BL-SPM LP.
type RelaxedBL struct {
	// X[i][j] is the fractional acceptance of request i on path j;
	// rows sum to at most 1.
	X [][]float64
	// Revenue is the optimal relaxed service revenue.
	Revenue float64
	// Warm reports that the solve finished from a retained or seeded
	// basis rather than cold (set only by BLModel).
	Warm bool
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
	p := lp.NewProblem(lp.Maximize)

	xCols, err := addRoutingVars(p, inst)
	if err != nil {
		return nil, err
	}
	for i := 0; i < inst.NumRequests(); i++ {
		row, err := p.AddConstraint(lp.LE, 1, "accept")
		if err != nil {
			return nil, err
		}
		for j := range xCols[i] {
			if err := p.AddTerm(row, xCols[i][j], 1); err != nil {
				return nil, err
			}
		}
	}
	if err := addCapacityRowsVar(p, inst, xCols, caps); err != nil {
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
	return &RelaxedBL{X: extractX(sol.X, inst), Revenue: sol.Objective}, nil
}

// ExpandCaps broadcasts a per-link capacity vector to the per-(link,
// slot) form used by the time-varying solvers.
func ExpandCaps(inst *sched.Instance, caps []int) [][]float64 {
	out := make([][]float64, len(caps))
	for e, c := range caps {
		out[e] = make([]float64, inst.Slots())
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

// addRoutingVars adds one [0, 1] routing variable x[i][j] per request
// and candidate path, priced at the request's value (BL-SPM and SPM
// revenue; the RL-SPM builder lays out its own).
func addRoutingVars(p *lp.Problem, inst *sched.Instance) ([][]int, error) {
	xCols := make([][]int, inst.NumRequests())
	for i := range xCols {
		obj := inst.Request(i).Value
		xCols[i] = make([]int, inst.NumPaths(i))
		for j := range xCols[i] {
			col, err := p.AddVariable(obj, 0, 1, "x")
			if err != nil {
				return nil, err
			}
			xCols[i][j] = col
		}
	}
	return xCols, nil
}

// addCapacityRows adds one row per (link, slot) pair that can carry
// load: Σ_{i,j} r_i·x[i][j]·I − (bandwidth var, optional) <= rhs(e, t).
// bwVar returns, per link, the bandwidth column or -1 for none. The
// returned index is rows[e][t] = the row added for that pair, or -1
// where no request can load the link — incremental models use it to
// retarget capacities via SetRHS.
func addCapacityRows(p *lp.Problem, inst *sched.Instance, xCols [][]int, bwVar func(e int) int, rhs func(e, t int) float64) ([][]int, error) {
	net := inst.Network()
	slots := inst.Slots()

	// terms for cell (e, t) live at flat[off[e*slots+t]:off[e*slots+t+1]]:
	// a counting pass sizes each cell exactly, then a second pass fills a
	// single flat backing array. The per-cell append version of this loop
	// was a model-construction hot spot (tens of thousands of tiny slice
	// growths per build).
	type term struct {
		col  int
		rate float64
	}
	cells := net.NumLinks() * slots
	off := make([]int, cells+1)
	for i := 0; i < inst.NumRequests(); i++ {
		r := inst.Request(i)
		for j := range xCols[i] {
			for _, e := range inst.Path(i, j).Links {
				base := e*slots + 1
				for t := r.Start; t <= r.End; t++ {
					off[base+t]++
				}
			}
		}
	}
	for c := 0; c < cells; c++ {
		off[c+1] += off[c]
	}
	flat := make([]term, off[cells])
	fill := make([]int, cells)
	copy(fill, off[:cells])
	for i := 0; i < inst.NumRequests(); i++ {
		r := inst.Request(i)
		for j := range xCols[i] {
			col := xCols[i][j]
			for _, e := range inst.Path(i, j).Links {
				base := e * slots
				for t := r.Start; t <= r.End; t++ {
					flat[fill[base+t]] = term{col: col, rate: r.Rate}
					fill[base+t]++
				}
			}
		}
	}

	rows := make([][]int, net.NumLinks())
	for e := 0; e < net.NumLinks(); e++ {
		col := bwVar(e)
		rows[e] = make([]int, slots)
		for t := 0; t < slots; t++ {
			rows[e][t] = -1
			c := e*slots + t
			if off[c] == off[c+1] {
				continue
			}
			row, err := p.AddConstraint(lp.LE, rhs(e, t), "cap")
			if err != nil {
				return nil, fmt.Errorf("spm: capacity of link %d slot %d: %w", e, t, err)
			}
			rows[e][t] = row
			for _, tm := range flat[off[c]:off[c+1]] {
				if err := p.AddTerm(row, tm.col, tm.rate); err != nil {
					return nil, err
				}
			}
			if col >= 0 {
				if err := p.AddTerm(row, col, -1); err != nil {
					return nil, err
				}
			}
		}
	}
	return rows, nil
}

// addCapacityRowsVar adds Σ load(e, t) <= caps[e][t] rows for every
// (link, slot) that can carry load.
func addCapacityRowsVar(p *lp.Problem, inst *sched.Instance, xCols [][]int, caps [][]float64) error {
	_, err := addCapacityRows(p, inst, xCols,
		func(e int) int { return -1 },
		func(e, t int) float64 { return caps[e][t] },
	)
	return err
}

// extractX reads the clamped routing rows out of a solution whose first
// columns are inst's routing variables request by request (x[i][j] at
// column Σ_{i'<i} paths(i') + j), as addRoutingVars and the RL-SPM
// builder lay them out. The rows share one backing array.
func extractX(x []float64, inst *sched.Instance) [][]float64 {
	out := make([][]float64, inst.NumRequests())
	n := 0
	for i := range out {
		n += inst.NumPaths(i)
	}
	flat := make([]float64, n)
	col := 0
	for i := range out {
		out[i] = flat[col : col+inst.NumPaths(i) : col+inst.NumPaths(i)]
		for j := range out[i] {
			out[i][j] = clamp01(x[col])
			col++
		}
	}
	return out
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
