package spm

import (
	"fmt"
	"slices"

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
	p      lp.Problem
	b      lpBuild
	basis  *lp.Basis
	opts   lp.Options
	active []bool
}

// NewRLModel builds the relaxed RL-SPM LP for the full instance, with
// every request active. opts configures all subsequent solves.
func NewRLModel(inst *sched.Instance, opts lp.Options) (*RLModel, error) {
	m := &RLModel{basis: lp.NewBasis(), opts: opts}
	if err := m.b.build(&m.p, inst, rlLP, nil); err != nil {
		return nil, err
	}
	m.active = make([]bool, inst.NumRequests())
	for i := range m.active {
		m.active[i] = true
	}
	return m, nil
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
	var x xRows
	return &RelaxedRL{
		X:    x.read(sol.X, m.b.xCols, subset),
		C:    append([]float64(nil), sol.X[m.b.nx:]...),
		Cost: sol.Objective,
	}, nil
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
		for _, col := range m.b.xCols[i] {
			if err := m.p.SetBounds(col, 0, hi); err != nil {
				return err
			}
		}
		if err := m.p.SetRHS(i, rhs); err != nil {
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
// A model keeps its storage from one Build to the next: the LP, the
// working arrays of its basis, and the result of its last solve, which
// its next solve rewrites. A BLModel is not safe for concurrent use.
type BLModel struct {
	p                  lp.Problem
	b                  lpBuild
	basis              *lp.Basis
	opts               lp.Options
	active             []bool
	want               []bool
	seedRows, seedCols []int
	x                  xRows
	rel                RelaxedBL
}

// NewBLModel builds the relaxed BL-SPM LP for the full instance, with
// every request active and all capacities zero (SolveSubset installs
// the round's capacities before every solve).
func NewBLModel(inst *sched.Instance, opts lp.Options) (*BLModel, error) {
	m := new(BLModel)
	if err := m.Build(inst, opts); err != nil {
		return nil, err
	}
	return m, nil
}

// Build rebuilds m as NewBLModel(inst, opts) would, in the arrays of its
// last build; the working arrays of the basis it held serve its next
// seed or cold solve.
func (m *BLModel) Build(inst *sched.Instance, opts lp.Options) error {
	m.basis.Reset()
	if m.basis == nil {
		m.basis = lp.NewBasis()
	}
	if err := m.b.build(&m.p, inst, blLP, nil); err != nil {
		return err
	}
	m.opts = opts
	m.active = slices.Grow(m.active[:0], inst.NumRequests())[:inst.NumRequests()]
	for i := range m.active {
		m.active[i] = true
	}
	return nil
}

// Drop ends a run of the model: it forgets the options it was built with
// and its basis, whose working arrays it keeps for the next Build.
func (m *BLModel) Drop() {
	m.basis.Reset()
	m.opts = lp.Options{}
}

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
	rows, cols := m.seedRows[:0], m.seedCols[:0]
	for k, i := range subset {
		if i < 0 || i >= len(m.b.xCols) {
			return false
		}
		c := routing.Choice(k)
		if c == sched.Declined {
			continue
		}
		if c >= len(m.b.xCols[i]) {
			return false
		}
		rows = append(rows, i)
		cols = append(cols, m.b.xCols[i][c])
	}
	m.seedRows, m.seedCols = rows, cols
	m.basis = m.p.SeedBasis(rows, cols)
	return m.basis.Valid()
}

// SolveSubset solves the relaxation restricted to the given request
// subset under per-link capacities caps (constant across slots, like
// taa.Solve). The returned solution is subset-shaped, matching a
// sub-instance built from the same subset; it is the model's, and its
// next solve rewrites it.
func (m *BLModel) SolveSubset(subset []int, caps []int) (*RelaxedBL, error) {
	if links := len(m.b.cellRow) / m.b.slots; len(caps) != links {
		return nil, fmt.Errorf("spm: BLModel: capacity vector has %d entries, want %d", len(caps), links)
	}
	m.want = slices.Grow(m.want[:0], len(m.active))[:len(m.active)]
	clear(m.want)
	for _, i := range subset {
		if i < 0 || i >= len(m.active) {
			return nil, fmt.Errorf("spm: BLModel: request %d out of range", i)
		}
		m.want[i] = true
	}
	for i, want := range m.want {
		if m.active[i] == want {
			continue
		}
		hi := 0.0
		if want {
			hi = 1
		}
		for _, col := range m.b.xCols[i] {
			if err := m.p.SetBounds(col, 0, hi); err != nil {
				return nil, err
			}
		}
		m.active[i] = want
	}
	for c, row := range m.b.cellRow {
		if row < 0 {
			continue
		}
		if err := m.p.SetRHS(int(row), float64(caps[c/m.b.slots])); err != nil {
			return nil, err
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
	m.rel = RelaxedBL{
		X:       m.x.read(sol.X, m.b.xCols, subset),
		Revenue: sol.Objective,
		Warm:    sol.Warm,
	}
	return &m.rel, nil
}
