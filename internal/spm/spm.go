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
	net := inst.Network()
	p := lp.NewProblem(lp.Minimize)

	xCols, err := addRoutingVars(p, inst, 0)
	if err != nil {
		return nil, err
	}
	cCols := make([]int, net.NumLinks())
	for e := range cCols {
		cCols[e], err = p.AddVariable(net.Link(e).Price, 0, math.Inf(1), "c")
		if err != nil {
			return nil, err
		}
	}

	// Σ_j x[i][j] = 1 for every request.
	for i := 0; i < inst.NumRequests(); i++ {
		row, err := p.AddConstraint(lp.EQ, 1, "serve")
		if err != nil {
			return nil, err
		}
		for j := range xCols[i] {
			if err := p.AddTerm(row, xCols[i][j], 1); err != nil {
				return nil, err
			}
		}
	}

	// Σ load(e, t) − c_e <= 0 for every (link, slot) that can carry load.
	if _, err := addCapacityRows(p, inst, xCols,
		func(e int) int { return cCols[e] },
		func(e, t int) float64 { return 0 },
	); err != nil {
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
		return nil, fmt.Errorf("spm: relaxed RL-SPM: %v", sol.Status)
	}

	res := &RelaxedRL{
		X:    extractX(sol.X, xCols),
		C:    make([]float64, net.NumLinks()),
		Cost: sol.Objective,
	}
	for e, col := range cCols {
		res.C[e] = sol.X[col]
	}
	return res, nil
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

	xCols, err := addRoutingVars(p, inst, 1)
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
	return &RelaxedBL{X: extractX(sol.X, xCols), Revenue: sol.Objective}, nil
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
// and candidate path; objMode selects their objective.
//   - 0: zero objective (RL-SPM; cost sits on the bandwidth variables)
//   - 1: request value (BL-SPM / SPM revenue)
func addRoutingVars(p *lp.Problem, inst *sched.Instance, objMode int) ([][]int, error) {
	xCols := make([][]int, inst.NumRequests())
	for i := range xCols {
		r := inst.Request(i)
		obj := 0.0
		if objMode == 1 {
			obj = r.Value
		}
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

func extractX(x []float64, xCols [][]int) [][]float64 {
	out := make([][]float64, len(xCols))
	for i := range xCols {
		out[i] = make([]float64, len(xCols[i]))
		for j, col := range xCols[i] {
			v := x[col]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			out[i][j] = v
		}
	}
	return out
}
