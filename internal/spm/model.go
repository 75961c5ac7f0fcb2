package spm

import (
	"fmt"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/solvectx"
)

// RLModel is a reusable RL-SPM relaxation over the full instance.
// Metis's alternation solves the relaxation once per round on a
// shrinking accepted subset; instead of rebuilding the LP each round,
// the model is built once and a round's subset is applied as deltas —
// a deactivated request's routing columns are fixed to zero and its
// serve row's right-hand side drops to 0 — which keeps the cached
// constraint matrix and lets each solve warm-start from the previous
// round's basis.
//
// An RLModel is not safe for concurrent use.
type RLModel struct {
	inst      *sched.Instance
	p         *lp.Problem
	xCols     [][]int
	cCols     []int
	serveRows []int
	basis     *lp.Basis
	opts      lp.Options
	active    []bool
}

// NewRLModel builds the relaxed RL-SPM LP for the full instance, with
// every request active. opts configures all subsequent solves.
func NewRLModel(inst *sched.Instance, opts lp.Options) (*RLModel, error) {
	p := new(lp.Problem)
	var b rlBuild
	if err := b.build(p, inst); err != nil {
		return nil, err
	}
	xCols, cCols := rlColumns(inst)
	serveRows := make([]int, inst.NumRequests())
	for i := range serveRows {
		serveRows[i] = i
	}
	active := make([]bool, inst.NumRequests())
	for i := range active {
		active[i] = true
	}
	return &RLModel{
		inst: inst, p: p, xCols: xCols, cCols: cCols, serveRows: serveRows,
		basis: lp.NewBasis(), opts: opts, active: active,
	}, nil
}

// SolveSubset solves the relaxation restricted to the given request
// subset (indices into the full instance, strictly increasing). The
// returned solution is subset-shaped: X[k] is the routing row of
// request subset[k], matching a sub-instance built from the same
// subset. The first call solves cold and captures a basis; later calls
// apply only the subset delta and warm-start.
func (m *RLModel) SolveSubset(subset []int) (*RelaxedRL, error) {
	if err := m.toggle(subset); err != nil {
		return nil, err
	}
	opts := m.opts
	opts.Warm = m.basis
	sol, err := m.p.Solve(opts)
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
		X:    extractSubsetX(sol.X, m.xCols, subset),
		C:    make([]float64, len(m.cCols)),
		Cost: sol.Objective,
	}
	for e, col := range m.cCols {
		res.C[e] = sol.X[col]
	}
	return res, nil
}

// toggle applies the active-set delta for subset: requests leaving the
// set have their routing columns fixed to zero and their serve row
// relaxed to Σx = 0; requests (re)entering are restored.
func (m *RLModel) toggle(subset []int) error {
	want := make([]bool, len(m.active))
	for _, i := range subset {
		if i < 0 || i >= len(m.active) {
			return fmt.Errorf("spm: RLModel: request %d out of range", i)
		}
		want[i] = true
	}
	for i := range m.active {
		if m.active[i] == want[i] {
			continue
		}
		hi, rhs := 0.0, 0.0
		if want[i] {
			hi, rhs = 1, 1
		}
		for _, col := range m.xCols[i] {
			if err := m.p.SetBounds(col, 0, hi); err != nil {
				return err
			}
		}
		if err := m.p.SetRHS(m.serveRows[i], rhs); err != nil {
			return err
		}
		m.active[i] = want[i]
	}
	return nil
}

// BLModel is a reusable BL-SPM relaxation over the full instance; the
// TAA analogue of RLModel. Rounds change two things: the accepted
// subset (deactivated requests' routing columns are fixed to zero; the
// accept rows are ≤ 1 and stay satisfied at zero) and the per-link
// capacities, applied to the capacity rows via SetRHS.
//
// A BLModel is not safe for concurrent use.
type BLModel struct {
	inst       *sched.Instance
	p          *lp.Problem
	xCols      [][]int
	acceptRows []int
	capRows    [][]int
	basis      *lp.Basis
	opts       lp.Options
	active     []bool
}

// NewBLModel builds the relaxed BL-SPM LP for the full instance, with
// every request active and all capacities zero (SolveSubset installs
// the round's capacities before every solve).
func NewBLModel(inst *sched.Instance, opts lp.Options) (*BLModel, error) {
	p := lp.NewProblem(lp.Maximize)

	xCols, err := addRoutingVars(p, inst)
	if err != nil {
		return nil, err
	}
	acceptRows := make([]int, inst.NumRequests())
	for i := range acceptRows {
		row, err := p.AddConstraint(lp.LE, 1, "accept")
		if err != nil {
			return nil, err
		}
		acceptRows[i] = row
		for j := range xCols[i] {
			if err := p.AddTerm(row, xCols[i][j], 1); err != nil {
				return nil, err
			}
		}
	}
	capRows, err := addCapacityRows(p, inst, xCols,
		func(e int) int { return -1 },
		func(e, t int) float64 { return 0 },
	)
	if err != nil {
		return nil, err
	}

	active := make([]bool, inst.NumRequests())
	for i := range active {
		active[i] = true
	}
	return &BLModel{
		inst: inst, p: p, xCols: xCols, acceptRows: acceptRows, capRows: capRows,
		basis: lp.NewBasis(), opts: opts, active: active,
	}, nil
}

// Release returns the working arrays of the model's basis to lp's
// shared pool; the next solve runs cold. A Metis solve releases its
// model when it ends.
func (m *BLModel) Release() { m.basis.Release() }

// Seed starts the model's next solve from a routing when the model
// holds no basis yet, instead of from the all-slack basis. routing is a
// schedule over the sub-instance of subset (request k of routing is
// request subset[k] here), such as MAA's serve-everything schedule.
// Each routed request's path column becomes basic in its accept row and
// every capacity slack stays basic. Every request then prices at its
// value on its accept row, which leaves each of its paths at reduced
// cost 0 and its accept slack at its value, so the basis is dual
// feasible whatever the capacities; it is primal infeasible only on the
// (link, slot) rows the routing overloads. The solve is therefore a
// dual repair of those rows and a primal certification.
//
// Seed reports whether the seed was installed. It is a no-op when the
// model already holds a basis; a routing that does not fit the model
// leaves the next solve cold.
func (m *BLModel) Seed(subset []int, routing *sched.Schedule) bool {
	if m.basis.Valid() || routing.Instance().NumRequests() != len(subset) {
		return false
	}
	rows := make([]int, 0, len(subset))
	cols := make([]int, 0, len(subset))
	for k, i := range subset {
		if i < 0 || i >= len(m.xCols) {
			return false
		}
		c := routing.Choice(k)
		if c == sched.Declined {
			continue
		}
		if c >= len(m.xCols[i]) {
			return false
		}
		rows = append(rows, m.acceptRows[i])
		cols = append(cols, m.xCols[i][c])
	}
	m.basis = m.p.SeedBasis(rows, cols)
	return m.basis.Valid()
}

// SolveSubset solves the relaxation restricted to the given request
// subset under per-link capacities caps (constant across slots, like
// taa.Solve). The returned solution is subset-shaped, matching a
// sub-instance built from the same subset.
func (m *BLModel) SolveSubset(subset []int, caps []int) (*RelaxedBL, error) {
	if len(caps) != len(m.capRows) {
		return nil, fmt.Errorf("spm: BLModel: capacity vector has %d entries, want %d", len(caps), len(m.capRows))
	}
	want := make([]bool, len(m.active))
	for _, i := range subset {
		if i < 0 || i >= len(m.active) {
			return nil, fmt.Errorf("spm: BLModel: request %d out of range", i)
		}
		want[i] = true
	}
	for i := range m.active {
		if m.active[i] == want[i] {
			continue
		}
		hi := 0.0
		if want[i] {
			hi = 1
		}
		for _, col := range m.xCols[i] {
			if err := m.p.SetBounds(col, 0, hi); err != nil {
				return nil, err
			}
		}
		m.active[i] = want[i]
	}
	for e, rows := range m.capRows {
		c := float64(caps[e])
		for _, row := range rows {
			if row < 0 {
				continue
			}
			if err := m.p.SetRHS(row, c); err != nil {
				return nil, err
			}
		}
	}

	opts := m.opts
	opts.Warm = m.basis
	sol, err := m.p.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.StatusCanceled {
		return nil, solvectx.Canceled(opts.Ctx)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("spm: relaxed BL-SPM: %v", sol.Status)
	}
	return &RelaxedBL{
		X:       extractSubsetX(sol.X, m.xCols, subset),
		Revenue: sol.Objective,
		Warm:    sol.Warm,
	}, nil
}

// extractSubsetX is extractX restricted and reindexed to subset: row k
// of the result is the clamped routing row of full-instance request
// subset[k].
func extractSubsetX(x []float64, xCols [][]int, subset []int) [][]float64 {
	out := make([][]float64, len(subset))
	n := 0
	for _, i := range subset {
		n += len(xCols[i])
	}
	flat := make([]float64, 0, n)
	for k, i := range subset {
		for _, col := range xCols[i] {
			flat = append(flat, clamp01(x[col]))
		}
		out[k] = flat[len(flat)-len(xCols[i]) : len(flat) : len(flat)]
	}
	return out
}
