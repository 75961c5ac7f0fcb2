package spm

import (
	"fmt"
	"sort"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/stats"
)

// BLSession is the cross-epoch sibling of BLModel: a persistent BL-SPM
// relaxation that absorbs newly arrived requests as appended columns on
// the live LP instead of being rebuilt per replan. Two layout choices
// make extension exact rather than approximate:
//
//   - The capacity block is built first and covers every (link, slot)
//     cell — including cells no current request can load, which sit
//     harmlessly at slack — so appended columns only ever reference
//     existing rows.
//   - Each arrival appends its accept row and then its routing columns
//     through lp.AppendColumn, which extends the cached constraint
//     matrix in place.
//
// Consequence: extending a session in any batch partition produces an
// lp.Problem bit-identical to a fresh session built over the same
// request sequence. A cold solve of the extended model therefore
// reproduces a cold solve of a from-scratch rebuild bit for bit, which
// is what the incremental replanner's differential tests assert.
//
// Solves warm-start from the previous replan's basis; the retained
// basis grows across appends (lp.Basis grow path) rather than going
// stale. For the warm vertex to be the rebuild's vertex the optimum must
// be unique, and the plain relaxation's never is: a request whose
// candidate paths all have spare capacity may split across them any way
// it likes. The session therefore prices routing column (i, j) at the
// request's value plus an index-keyed tie-break (tiedValue), a pure
// function of the model, which makes the optimum unique by construction
// and costs the bound at most tieBreak relative (see RelaxedBL.Revenue
// in SolveSubset). Inputs the tie-break cannot separate — zero-value
// requests, reduced costs that still land within lp.Options.Tol — keep
// the fallback rung: a warm solve that reports a degenerate optimum is
// re-solved cold on the same model, restoring exact agreement with the
// rebuild path, and counted (spm.session.cold_resolves of
// spm.session.solves) so the rung can be seen to be rare.
//
// A BLSession is not safe for concurrent use.
type BLSession struct {
	inst    *sched.Instance
	p       *lp.Problem
	xCols   [][]int
	capRows [][]int // rows[e][t] for every cell; never -1
	basis   *lp.Basis
	opts    lp.Options
	active  []bool
	solved  int // requests present at the last completed solve
}

// NewBLSession builds a session over inst with every request active
// and all capacities zero (SolveSubset installs capacities per solve).
func NewBLSession(inst *sched.Instance, opts lp.Options) (*BLSession, error) {
	net := inst.Network()
	slots := inst.Slots()
	p := lp.NewProblem(lp.Maximize)
	capRows := make([][]int, net.NumLinks())
	for e := 0; e < net.NumLinks(); e++ {
		capRows[e] = make([]int, slots)
		for t := 0; t < slots; t++ {
			row, err := p.AddConstraint(lp.LE, 0, nameIdx2("cap", e, t))
			if err != nil {
				return nil, err
			}
			capRows[e][t] = row
		}
	}
	s := &BLSession{inst: inst, p: p, capRows: capRows, basis: lp.NewBasis(), opts: opts}
	if err := s.append(inst, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// Extend folds the requests inst gained beyond the session's current
// instance into the live model as appended accept rows and routing
// columns. inst must extend the session's instance (same network and
// cycle, request prefix unchanged); typically it comes from
// sched.Instance.Extend.
func (s *BLSession) Extend(inst *sched.Instance) error {
	if inst.Network() != s.inst.Network() || inst.Slots() != s.inst.Slots() {
		return fmt.Errorf("spm: BLSession: extension changes the network or cycle shape")
	}
	if inst.NumRequests() < len(s.active) {
		return fmt.Errorf("spm: BLSession: extension shrank from %d to %d requests", len(s.active), inst.NumRequests())
	}
	from := len(s.active)
	if err := s.append(inst, from); err != nil {
		return err
	}
	s.inst = inst
	return nil
}

// append adds accept rows and routing columns for requests [from, n).
func (s *BLSession) append(inst *sched.Instance, from int) error {
	for i := from; i < inst.NumRequests(); i++ {
		r := inst.Request(i)
		accept, err := s.p.AddConstraint(lp.LE, 1, nameIdx("accept", i))
		if err != nil {
			return err
		}
		cols := make([]int, inst.NumPaths(i))
		for j := range cols {
			links := inst.Path(i, j).Links
			rows := make([]int, 0, len(links)*r.Duration()+1)
			for _, e := range links {
				for t := r.Start; t <= r.End; t++ {
					rows = append(rows, s.capRows[e][t])
				}
			}
			sort.Ints(rows)
			vals := make([]float64, 0, len(rows)+1)
			merged := rows[:0]
			for _, row := range rows {
				if n := len(merged); n > 0 && merged[n-1] == row {
					vals[n-1] += r.Rate // a path revisiting a link loads it twice
					continue
				}
				merged = append(merged, row)
				vals = append(vals, r.Rate)
			}
			merged = append(merged, accept)
			vals = append(vals, 1)
			col, err := s.p.AppendColumn(tiedValue(r.Value, i, j, len(cols)), 0, 1, merged, vals, nameIdx2("x", i, j))
			if err != nil {
				return err
			}
			cols[j] = col
		}
		s.xCols = append(s.xCols, cols)
		s.active = append(s.active, true)
	}
	return nil
}

// tieBreak is the relative size of the objective tie-break. It is
// bounded from both sides:
//
//   - Below by lp.Options.Tol: optimality and degeneracy are judged on
//     reduced costs at an absolute 1e-7, and a request's own paths are
//     priced tieBreak·value/paths apart. Generated values run from about
//     1e-2 to 1 over 3 paths, so 1e-3 separates them by ≥ 3e-6. At 1e-5
//     the gap sinks under Tol and four in five warm optima still report
//     degenerate on the service-scale trace; at 1e-4, one in four; at
//     1e-3, one in fifty.
//   - Above by the relaxation's use as an upper bound: every column's
//     price is inflated by a factor in (1, 1+tieBreak], so the tied
//     optimum lies in [OPT, (1+tieBreak)·OPT] for the untied optimum OPT.
const tieBreak = 1e-3

// tiedValue prices routing column (i, j) of a request with n candidate
// paths: value·(1 + tieBreak·u) with u = (n − j − h(i))/n ∈ (0, 1], where
// h(i) ∈ [0, 1) is a fixed hash of the request index. Lower path indices
// (shorter paths) win ties within a request by a full 1/n step; h spreads
// requests of equal value and rate apart without reordering any
// request's own paths (with one value and rate for every request it
// takes the cold re-solves from one warm solve in two to one in eleven).
// The term is non-negative and vanishes with the value, so a zero-value
// request stays tied.
func tiedValue(value float64, i, j, n int) float64 {
	h := float64(stats.SplitMix64(uint64(i))>>11) / (1 << 53)
	u := (float64(n-j) - h) / float64(n)
	return value * (1 + tieBreak*u)
}

// SetOptions replaces the LP options used by subsequent solves; the
// replanner threads each tick's solve context through here.
func (s *BLSession) SetOptions(opts lp.Options) { s.opts = opts }

// Instance returns the session's current (extended) instance.
func (s *BLSession) Instance() *sched.Instance { return s.inst }

// NumRequests returns the number of requests folded into the model.
func (s *BLSession) NumRequests() int { return len(s.active) }

// SolveSubset solves the relaxation restricted to subset (indices into
// the session's instance) under per-link capacities caps, constant
// across slots. The returned solution is subset-shaped and its X is
// what a from-scratch cold rebuild of the same model would return: the
// tie-break makes the optimum unique, so the warm vertex is the cold
// one; a warm solve that still reports a degenerate optimum is re-solved
// cold on the spot, and the extension layout makes that cold solve
// bit-identical to the rebuild's. Revenue is the tied objective: an
// upper bound on the untied BL relaxation (BLModel) optimum, at most
// tieBreak relative above it.
func (s *BLSession) SolveSubset(subset []int, caps []int) (*RelaxedBL, error) {
	if len(caps) != len(s.capRows) {
		return nil, fmt.Errorf("spm: BLSession: capacity vector has %d entries, want %d", len(caps), len(s.capRows))
	}
	want := make([]bool, len(s.active))
	for _, i := range subset {
		if i < 0 || i >= len(s.active) {
			return nil, fmt.Errorf("spm: BLSession: request %d out of range", i)
		}
		want[i] = true
	}
	for e, rows := range s.capRows {
		c := float64(caps[e])
		for _, row := range rows {
			if err := s.p.SetRHS(row, c); err != nil {
				return nil, err
			}
		}
	}

	// Two-stage fold-in: when the subset introduces never-solved
	// newcomers on a retained basis, first repair the capacity and
	// toggle deltas with the newcomers still inactive (pure dual
	// repair), then activate them and let the primal cleanup price the
	// appended columns in. Folding both into one solve would face the
	// repair with simultaneous primal infeasibility (rhs deltas) and
	// dual infeasibility (profitable new columns), which the dual
	// repair must hand over to a full cold solve.
	hasNew := false
	for _, i := range subset {
		if i >= s.solved {
			hasNew = true
			break
		}
	}
	opts := s.opts
	opts.Warm = s.basis
	if hasNew && s.solved > 0 && s.basis.Valid() {
		if err := s.toggle(want, s.solved); err != nil {
			return nil, err
		}
		sol, err := s.p.Solve(opts)
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.StatusCanceled {
			return nil, solvectx.Canceled(opts.Ctx)
		}
		if sol.Status != lp.StatusOptimal {
			return nil, fmt.Errorf("spm: BLSession fold-in: %v", sol.Status)
		}
	}
	if err := s.toggle(want, len(s.active)); err != nil {
		return nil, err
	}
	sol, err := s.p.Solve(opts)
	if err != nil {
		return nil, err
	}
	if sol.Status == lp.StatusCanceled {
		return nil, solvectx.Canceled(opts.Ctx)
	}
	if sol.Status != lp.StatusOptimal {
		return nil, fmt.Errorf("spm: relaxed BL-SPM session: %v", sol.Status)
	}
	if sol.Degenerate && sol.Warm {
		// The tie-break left this warm optimum vertex-ambiguous: only
		// the objective is pinned, and consumers round X. Re-solve cold
		// on the same model — by the bit-identity property this returns
		// exactly the rebuild path's X — and recapture the basis.
		cSessionColdResolves.Inc()
		s.basis.Reset()
		sol, err = s.p.Solve(opts)
		if err != nil {
			return nil, err
		}
		if sol.Status == lp.StatusCanceled {
			return nil, solvectx.Canceled(opts.Ctx)
		}
		if sol.Status != lp.StatusOptimal {
			return nil, fmt.Errorf("spm: relaxed BL-SPM session (cold re-solve): %v", sol.Status)
		}
	}
	s.solved = len(s.active)
	cSessionSolves.Inc()
	return &RelaxedBL{
		X:       extractSubsetX(sol.X, s.xCols, subset),
		Revenue: sol.Objective,
	}, nil
}

// toggle applies the activation state: request i is active when
// want[i] && i < limit; everything else has its routing columns fixed
// to zero. The limit carve-out implements the fold-in stage, which
// solves with never-solved newcomers still inactive.
func (s *BLSession) toggle(want []bool, limit int) error {
	for i := range s.active {
		target := want[i] && i < limit
		if s.active[i] == target {
			continue
		}
		hi := 0.0
		if target {
			hi = 1
		}
		for _, col := range s.xCols[i] {
			if err := s.p.SetBounds(col, 0, hi); err != nil {
				return err
			}
		}
		s.active[i] = target
	}
	return nil
}
