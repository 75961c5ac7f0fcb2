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
// capacities, applied to the capacity rows via SetRHS. Its first solve
// runs cold and later ones warm-start from the basis it left.
//
// No solver uses it: Metis's BL-SPM step is TAA's greedy arm, which
// solves no LP. It stays because the benchmark's per-layer probes time
// its build and its solve at K=1000. A BLModel is not safe for
// concurrent use.
type BLModel struct {
	p      lp.Problem
	b      lpBuild
	basis  *lp.Basis
	opts   lp.Options
	active []bool
	want   []bool
	x      xRows
	rel    RelaxedBL
}

// NewBLModel builds the relaxed BL-SPM LP for the full instance, with
// every request active and all capacities zero (SolveSubset installs
// the round's capacities before every solve). opts configures all
// subsequent solves.
func NewBLModel(inst *sched.Instance, opts lp.Options) (*BLModel, error) {
	m := &BLModel{basis: lp.NewBasis(), opts: opts}
	if err := m.b.build(&m.p, inst, blLP, nil); err != nil {
		return nil, err
	}
	m.active = make([]bool, inst.NumRequests())
	for i := range m.active {
		m.active[i] = true
	}
	return m, nil
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
	}
	return &m.rel, nil
}
