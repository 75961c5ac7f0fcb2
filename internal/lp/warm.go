package lp

import "math"

// Basis is an opaque warm-start handle: it retains the final simplex
// basis of a Solve (basic set, nonbasic at-lower/at-upper statuses, and
// the factorized basis inverse) together with the working-problem
// layout it was built for. Passing the handle back via Options.Warm
// lets the next Solve on the same Problem repair that basis with
// bounded-variable dual simplex after SetBounds/SetRHS deltas instead
// of re-running two-phase simplex from the all-slack basis.
//
// A Basis is bound to the Problem whose solve captured it (its home)
// and to that problem's build: passed to another Problem, or after a
// Reset of its own, it is stale and the next solve runs cold (which
// refreshes the handle). Appended columns and ≤ rows keep it usable.
// The zero handle from NewBasis is valid input — the first solve runs
// cold and captures. Dropping the basis (Reset, a stalled warm solve)
// hands its working arrays back to its home problem, and a cold solve
// that replaces it runs in them.
//
// A Basis is not safe for concurrent use.
type Basis struct {
	home    *Problem // fingerprint: the problem whose solve captured it
	builds  int      // and that problem's Reset count at capture
	m       int
	nStruct int
	sign    []float64 // row normalization signs of the capture solve
	sx      *simplex  // retained working problem; nil when invalid
	ok      bool
	// shared marks a handle whose working arrays Clone shares with
	// another handle; dropping it never hands them back to home.
	shared bool
}

// NewBasis returns an empty handle: the first Solve using it runs cold
// and captures its final basis for subsequent warm solves.
func NewBasis() *Basis { return &Basis{} }

// SeedBasis returns a handle holding a basis the caller names rather
// than one a solve captured: p's slack basis with each cols[k] basic in
// place of row rows[k]'s slack, every other column nonbasic at its
// lower bound. The next Solve with the handle runs the warm path from
// it — a dual repair when the seed is dual feasible, the primal cleanup
// alone when it is primal feasible — and falls back cold when it is
// neither. Bounds and right-hand sides are read at that solve, as for
// any retained basis.
//
// A seed the basis cannot hold is refused with an empty handle, on
// which the next solve runs cold exactly as with NewBasis: rows and
// cols of different lengths, a row or column out of range or named
// twice, a row without a +1 slack (seeded or not: an equality row, or
// an inequality whose slack the row normalization negates), or a
// singular basis matrix.
//
// No solver seeds a basis any more; SeedBasis is kept as a test
// oracle. TestSingularPivotRejected, TestDualRejectedPivotHandsOver and
// TestLUKeyRowEmptySet build the bases they need with it, and
// TestSeedBasisReachesColdObjective holds it to the cold solve.
func (p *Problem) SeedBasis(rows, cols []int) *Basis {
	w := NewBasis()
	if len(rows) != len(cols) {
		return w
	}
	m, nStruct := len(p.rel), len(p.obj)
	s := p.takeWork(nil)
	s.m, s.opts = m, Options{}.withDefaults(m, nStruct)
	p.layout(s)
	if s.nArt > 0 {
		p.putWork(s)
		return w
	}
	s.slackBasis()
	for k, i := range rows {
		j := cols[k]
		if i < 0 || i >= m || j < 0 || j >= nStruct || s.state[j] == isBasic || s.basic[i] != s.slackNB[i] {
			p.putWork(s)
			return w
		}
		s.state[s.basic[i]] = atLower
		s.basic[i] = j
		s.state[j] = isBasic
	}
	s.chooseBasis()
	if !s.factorSeed() {
		p.putWork(s)
		return w
	}
	// The hypersparse duals solve needs y zero outside its last pattern.
	clear(s.y)
	s.yNZp, s.yDense = s.yNZp[:0], false
	w.capture(p, s, s.signBuf)
	return w
}

// factorSeed builds the basis representation for a basic set installed
// directly rather than pivoted in: fresh LU factors, or the dense
// inverse read off a one-off factorization column by column. False
// means the basis is singular.
func (s *simplex) factorSeed() bool {
	if s.lu != nil {
		return s.refactorLU()
	}
	m := s.m
	var lu luBasis
	if !lu.factor(m, s.colPtr, s.rowIdx, s.vals, s.basic, nil) {
		return false
	}
	s.binv = grow(s.binv, m*m, m*m)
	e, x := s.y, s.w // free until the first solve
	for r := 0; r < m; r++ {
		clear(e)
		e[r] = 1
		lu.ftran(e, x) // column r of B⁻¹, by basis position
		for i, v := range x {
			s.binv[i*m+r] = v
		}
	}
	return true
}

// Valid reports whether the handle holds a reusable basis.
func (w *Basis) Valid() bool { return w != nil && w.ok && w.sx != nil }

// Reset drops the retained basis; the next solve runs cold. The
// working arrays go back to the handle's home problem, for its next
// cold solve or seed, unless Clone shares them.
func (w *Basis) Reset() { w.invalidate() }

func (w *Basis) invalidate() {
	if w == nil {
		return
	}
	if h := w.home; h != nil && w.sx != nil && !w.shared && h.work == nil {
		w.sx.opts = Options{}
		h.work = w.sx
	}
	w.ok = false
	w.sx = nil
	w.sign = nil
	w.home = nil
}

// capture takes ownership of the cold solve's final working state. The
// simplex arrays are moved, not copied — the cold path discards them
// anyway — so capturing is O(1).
func (w *Basis) capture(p *Problem, s *simplex, sign []float64) {
	w.home, w.builds = p, p.builds
	w.m = s.m
	w.nStruct = len(p.obj)
	w.sign = sign
	w.sx = s
	w.ok = true
	w.shared = false
}

// Clone returns an independent copy of the handle for branch & bound
// diving: the child may warm-solve and pivot freely without disturbing
// the parent's basis. Immutable layout arrays (constraint matrix,
// costs) are shared; basis state (Binv, statuses, values) is copied. A
// factorized handle's LU factors are NOT copied — the clone gets an
// empty factorization that is rebuilt from the copied basic set on first
// use, which is both cheaper than copying the fill and keeps the
// parent's updates private.
func (w *Basis) Clone() *Basis {
	if !w.Valid() {
		return NewBasis()
	}
	s := *w.sx
	s.b = append([]float64(nil), w.sx.b...)
	s.up = append([]float64(nil), w.sx.up...)
	s.state = append([]int(nil), w.sx.state...)
	s.basic = append([]int(nil), w.sx.basic...)
	s.xB = append([]float64(nil), w.sx.xB...)
	s.binv = append([]float64(nil), w.sx.binv...)
	s.y, s.w, s.nz, s.rho, s.wNZ = nil, nil, nil, nil, nil
	s.cB, s.cbNZ, s.yNZp, s.rhoNZp = nil, nil, nil, nil
	s.yDense = false
	s.phase1, s.slackNB, s.signBuf = nil, nil, nil
	s.cands, s.held, s.costRows, s.resid = nil, nil, nil, nil
	// The pivot-row accumulator is per-solve scratch. The CSR mirror is
	// immutable alongside the shared matrix arrays, so it (and csrOK) is
	// shared as-is.
	s.alpha, s.alphaNZ, s.movable = nil, nil, nil
	s.alphaStamp = 0
	s.leaveKey, s.leaveWin = nil, nil
	if s.lu != nil {
		s.lu = new(luBasis) // refactored on demand from s.basic
	}
	w.shared = true
	return &Basis{home: w.home, builds: w.builds, m: w.m, nStruct: w.nStruct, sign: w.sign, sx: &s, ok: true, shared: true}
}

// warmOutcome classifies how a solve interacted with the warm path;
// it feeds the lp.warm.* counters and the "warm" span field.
type warmOutcome int

const (
	// warmOff: Options.Warm was nil; the solve ran plain cold.
	warmOff warmOutcome = iota
	// warmEmpty: the handle held no basis (first solve); the cold path
	// ran and captured one. Not counted as a warm attempt.
	warmEmpty
	// warmHit: the retained basis was repaired to a final status.
	warmHit
	// warmStale: the Problem's matrix or shape changed since capture.
	warmStale
	// warmInfeasibleBasis: status snaps after bound deltas broke dual
	// feasibility, so the basis could not seed a dual repair.
	warmInfeasibleBasis
	// warmStall: the repair ran but gave up — dual iteration cap, a
	// dual pivot it could not take, failed feasibility recheck, cleanup
	// iteration limit, or accumulated factorization drift — or the
	// retained basic set no longer factors.
	warmStall
	// warmCanceled: Options.Ctx fired before or during the repair. The
	// basis is left intact (feasibility is re-verified on the next warm
	// attempt), so a retry after the cancel can still warm-start.
	warmCanceled
)

func (o warmOutcome) String() string {
	switch o {
	case warmOff:
		return "off"
	case warmEmpty:
		return "capture"
	case warmHit:
		return "hit"
	case warmStale:
		return "stale"
	case warmInfeasibleBasis:
		return "infeasible-basis"
	case warmStall:
		return "stall"
	case warmCanceled:
		return "canceled"
	}
	return "unknown"
}

// solveWarm attempts to solve p from the retained basis in opts.Warm.
// It returns a nil Solution whenever the cold path must take over:
// stale basis (matrix or dimensions changed), a basis that is neither
// primal nor dual feasible after the deltas, a stalled repair, or a
// failed accuracy check — the outcome says which. On success the
// returned Solution is status- and objective-identical to what the cold
// solve would produce (the optimal vertex may differ under degeneracy).
func (p *Problem) solveWarm(opts Options) (*Solution, warmOutcome) {
	w := opts.Warm
	if !w.Valid() {
		return nil, warmEmpty
	}
	nStruct := len(p.obj)
	mat := &p.matrix
	if w.home != p || p.builds != w.builds || nStruct != w.nStruct || len(p.rel) != w.m {
		// Append-only growth (AppendColumn / ≤ rows) since capture is
		// absorbed into the retained basis instead of bailing cold. Any
		// other change is stale.
		if !w.growCompatible(p, nStruct) {
			return nil, warmStale
		}
		if !w.grow(p, mat, opts) {
			w.invalidate()
			return nil, warmStale
		}
		cWarmGrows.Inc()
	}
	s := w.sx
	s.opts = opts.withDefaults(s.m, nStruct)
	s.iters = 0
	m := s.m
	sign := w.sign

	// Rebuild the working rhs and structural upper bounds from the
	// Problem's current SetRHS/SetBounds state, in the capture solve's
	// sign convention: b_i = sign_i·(rhs_i − Σ_j a_ij·lo_j).
	b := s.b
	copy(b, p.rhs)
	shiftObj := 0.0
	for j := 0; j < nStruct; j++ {
		lo := p.lo[j]
		if lo != 0 {
			for q := mat.colPtr[j]; q < mat.colPtr[j+1]; q++ {
				b[mat.rows[q]] -= mat.vals[q] * lo
			}
			shiftObj += p.objCoef(j) * lo
		}
		up := p.hi[j] - lo
		s.up[j] = up
		// A nonbasic variable keeps its bound status, re-read at the new
		// bound value; "at upper" is meaningless for a now-unbounded or
		// fixed variable, so those snap to lower.
		if s.state[j] == atUpper && (math.IsInf(up, 1) || up == 0) {
			s.state[j] = atLower
		}
	}
	for i := 0; i < m; i++ {
		if sign[i] < 0 {
			b[i] = -b[i]
		}
	}

	// A cloned or grown factorized handle carries the basic set but not
	// the factors; rebuild them before the first FTRAN below. A basic set
	// that no longer factors is no basis to start from, like a stale one.
	if s.lu != nil && !s.lu.ok && !s.refactorLU() {
		w.invalidate()
		return nil, warmStall
	}

	s.refreshXB()
	if !s.primalFeasible() {
		// Bound/rhs deltas keep the basis dual feasible (costs are
		// immutable); only status snaps above can break that, and then
		// the basis is useless — repair primal feasibility with dual
		// simplex, or hand over to the cold path.
		if !s.dualFeasible() {
			return nil, warmInfeasibleBasis
		}
		switch s.dualIterate() {
		case StatusInfeasible:
			// The basis itself is still dual feasible and reusable once
			// the caller relaxes the offending bounds again.
			return &Solution{Status: StatusInfeasible, Iters: s.iters, Warm: true, Basis: w}, warmHit
		case StatusIterLimit:
			w.invalidate()
			return nil, warmStall
		case StatusCanceled:
			// Stop here rather than falling back cold — the caller asked
			// for the solve to end, not for a fresh one. The interrupted
			// basis stays captured; the next warm attempt re-verifies it.
			return &Solution{Status: StatusCanceled, Iters: s.iters, Warm: true, Basis: w}, warmCanceled
		case StatusNumeric:
			w.invalidate()
			return &Solution{Status: StatusNumeric, Iters: s.iters, Warm: true}, warmHit
		}
		s.refreshXB()
		if !s.primalFeasible() {
			w.invalidate()
			return nil, warmStall
		}
	}

	// Primal cleanup: certifies optimality from the repaired basis (zero
	// pivots when the dual repair kept reduced costs optimal) and mops
	// up any tolerance-level dual infeasibility from status snaps.
	switch st := s.iterate(s.cost); st {
	case StatusIterLimit:
		// Give the cold path its own full iteration budget.
		w.invalidate()
		return nil, warmStall
	case StatusUnbounded, StatusNumeric:
		w.invalidate()
		return &Solution{Status: st, Iters: s.iters, Warm: true}, warmHit
	case StatusCanceled:
		return &Solution{Status: StatusCanceled, Iters: s.iters, Warm: true, Basis: w}, warmCanceled
	}

	s.refreshXB()
	if !s.residualOK() {
		// Accumulated factorization drift: refactorize via a cold solve.
		w.invalidate()
		return nil, warmStall
	}
	sol := p.extract(s, sign, shiftObj)
	sol.Warm = true
	sol.Basis = w
	sol.Degenerate = s.degenerateOptimum()
	return sol, warmHit
}

// degenerateOptimum reports whether the current optimal basis admits an
// alternative optimum: some movable nonbasic column prices out at
// (near-)zero reduced cost, so pivoting it in would move to a different
// vertex of equal objective. Callers use this to tell "warm and cold
// must agree on X (unique vertex)" apart from "only the objective is
// pinned".
func (s *simplex) degenerateOptimum() bool {
	s.ensureScratch()
	y := s.y
	s.costRows = s.computeDuals(s.cost, y, s.costRows)
	for j := 0; j < s.n; j++ {
		if s.state[j] == isBasic || s.up[j] == 0 {
			continue
		}
		if math.Abs(s.reducedCost(s.cost, j, y)) <= tol {
			return true
		}
	}
	return false
}

// primalFeasible reports whether every basic value lies within its
// variable's bounds (up to tolerance).
func (s *simplex) primalFeasible() bool {
	for i, xv := range s.xB {
		if xv < -tol {
			return false
		}
		if ub := s.up[s.basic[i]]; !math.IsInf(ub, 1) && xv > ub+tol*(1+ub) {
			return false
		}
	}
	return true
}

// dualFeasible reports whether every movable nonbasic variable's
// reduced cost has the optimal sign for its bound status.
func (s *simplex) dualFeasible() bool {
	s.ensureScratch()
	y := s.y
	s.costRows = s.computeDuals(s.cost, y, s.costRows)
	for j := 0; j < s.n; j++ {
		st := s.state[j]
		if st == isBasic || s.up[j] == 0 {
			continue
		}
		d := s.reducedCost(s.cost, j, y)
		if st == atLower && d < -tol {
			return false
		}
		if st == atUpper && d > tol {
			return false
		}
	}
	return true
}

// reducedCost returns d_j = c_j − y·A_j against the given cost vector —
// which must be the same vector the duals y were derived from (phase-1
// costs price against phase-1 duals; mixing vectors breaks the Bland
// termination guarantee and can cycle).
func (s *simplex) reducedCost(cost []float64, j int, y []float64) float64 {
	d := cost[j]
	lo, hi := s.colPtr[j], s.colPtr[j+1]
	vals := s.vals[lo:hi]
	for q, r := range s.rowIdx[lo:hi] {
		d -= y[r] * vals[q]
	}
	return d
}

// dualIterate runs bounded-variable dual simplex from a dual-feasible
// basis until every basic value is back within its bounds. Each pivot
// picks the most-violated basic variable to leave (the leaving-row
// index below) and the entering variable by the dual ratio test over
// the pivot row, so dual feasibility — and thus the optimality
// certificate — is preserved throughout. There is one rule and no
// anti-cycling rung: termination is the 200+4m pivot cap, after which
// both callers hand over to a path with its own guarantee (the dual
// cold start to two-phase primal, a warm repair to the cold solve).
//
// It returns StatusOptimal once the basis is primal feasible,
// StatusInfeasible when a row proves the problem infeasible,
// StatusIterLimit at the pivot cap or on a pivot it cannot take (one
// too small, or one whose basis does not factor: both callers hand over
// as at the cap), StatusCanceled when Options.Ctx fires, and
// StatusNumeric when the basis a rejected pivot returns to no longer
// factors.
func (s *simplex) dualIterate() Status {
	m := s.m
	s.ensureScratch()
	const pivTol = 1e-9
	y, w := s.y, s.w
	if s.lu != nil {
		// Same hypersparse buffer invariants as iterate: w, y and the
		// pivot-row buffer all-zero with no stale patterns before the
		// first sparse solves.
		clear(w)
		clear(y)
		s.wNZ = s.wNZ[:0]
		s.yNZp = s.yNZp[:0]
		s.yDense = false
		s.rho = grow(s.rho, m, m)
		clear(s.rho)
		s.rhoNZp = s.rhoNZp[:0]
		s.startPivotRows()
	}
	state, up := s.state, s.up
	yOK := false
	s.refactored = false
	s.buildLeaveIndex()

	// Dual pivots tally locally and flush once per repair.
	pivots := 0
	defer func() {
		if pivots != 0 {
			cPivots.Add(int64(pivots))
		}
	}()

	var costRows []int
	ctx := s.opts.Ctx

	// A repair is expected to be short: the caller's deltas push a
	// handful of basic values out of bounds, and a healthy dual repair
	// returns in pivots proportional to that perturbation, not to the
	// problem size. A repair grinding past a few multiples of m is
	// degenerate-crawling, and the cold two-phase solve is faster than
	// finishing the crawl — so hand over instead of burning the caller's
	// whole iteration cap here. (Observed before this cap: K=10⁴ BL
	// repairs consuming the full ~10⁶-iteration budget, minutes per
	// round, before stalling into the same cold fallback.)
	limit := s.opts.maxIters
	if rc := 200 + 4*m; rc < limit {
		limit = rc
	}
	for ; s.iters < limit; s.iters++ {
		// Same batched cancellation poll as iterate: iteration boundary
		// only, so the basis is always consistent on a canceled return.
		if ctx != nil && s.iters&31 == 0 && ctx.Err() != nil {
			return StatusCanceled
		}
		// Leaving row: the basic variable farthest outside its bounds,
		// ties to the lowest row. viol is signed: negative below zero,
		// positive above upper.
		leave, viol := s.pickLeave()
		if leave == -1 {
			return StatusOptimal
		}

		// Duals y = c_B^T·Binv for the ratio test's reduced costs. The
		// factorized path computes them once (dense-valid) and then folds
		// the pivot row into an incremental update each pivot — y ← y +
		// (d_q/α_rq)·ρ, exact in real arithmetic — with refreshes after
		// refactorizations; the dense path recomputes. The final primal
		// cleanup re-derives exact duals before certifying optimality
		// either way.
		if s.lu != nil {
			if !yOK {
				s.computeDualsFull(s.cost, y)
				yOK = true
			}
		} else {
			costRows = s.computeDuals(s.cost, y, costRows)
		}

		// Dual ratio test over the pivot row ρ = e_leave^T·Binv: among
		// eligible entering columns, the smallest |d_j|/|α_j| keeps every
		// reduced cost on the right side after the pivot. Ties prefer the
		// larger |α| (numerical stability). The dense path reads the row
		// straight out of Binv; the factorized path BTRANs a unit vector
		// instead.
		var rho []float64
		if s.lu != nil {
			// Hypersparse unit-vector BTRAN: the cB buffer (all-zero
			// between uses) carries the single seed, and rho keeps the
			// zero-outside-pattern invariant across iterations.
			rho = s.rho
			cb := grow(s.cB, m, m)
			s.cB = cb
			cbNZ := append(s.cbNZ[:0], int32(leave))
			cb[leave] = 1
			cbNZ, s.rhoNZp = s.lu.btranSparse(cb, cbNZ, rho, s.rhoNZp)
			for _, p := range cbNZ {
				cb[p] = 0
			}
			s.cbNZ = cbNZ[:0]
		} else {
			rho = s.binv[leave*m : leave*m+m]
		}
		// Short-step dual ratio test: argmin |d_j|/|α_j| over the
		// eligible columns, ties to the larger |α|. (A bound-flipping
		// long-step variant was tried here and measured consistently
		// worse on the SPM LPs — flips land columns at box corners while
		// these optima want many mid-box basics, so every batch of flips
		// floods other rows with violations and lengthens the repair; see
		// DESIGN.md, "Dual cold start".)
		enter := -1
		var bestRatio, bestAbs float64
		if s.lu != nil {
			// Hypersparse row path: only columns intersecting ρ's nonzero
			// rows can have α_j ≠ 0, so gather them over the CSR mirror
			// instead of sweeping every candidate column. A cold-start
			// repair runs O(m) pivots and the full sweep would make each
			// one O(nnz). The eligibility and ratio logic is inlined here
			// — this loop runs for every gathered column of every repair
			// pivot, and closure calls showed up in profiles.
			for _, j32 := range s.gatherPivotRow(rho, s.rhoNZp) {
				alpha := s.alpha[j32].v
				aab := math.Abs(alpha)
				if aab <= pivTol {
					continue
				}
				j := int(j32)
				st := state[j]
				// Eligibility: moving x_j off its bound must push the
				// leaving variable back toward its violated bound.
				if viol < 0 {
					if !(st == atLower && alpha < 0 || st == atUpper && alpha > 0) {
						continue
					}
				} else if !(st == atLower && alpha > 0 || st == atUpper && alpha < 0) {
					continue
				}
				// Dual feasibility bounds |d| from the feasible side;
				// clamp tolerance-level excursions to zero.
				d := s.reducedCost(s.cost, j, y)
				var dabs float64
				if st == atLower {
					if d > 0 {
						dabs = d
					}
				} else if d < 0 {
					dabs = -d
				}
				ratio := dabs / aab
				if enter == -1 || ratio < bestRatio-1e-12 ||
					(ratio < bestRatio+1e-12 && aab > bestAbs) {
					enter, bestRatio, bestAbs = j, ratio, aab
				}
			}
		} else {
			// Dense path: every movable nonbasic column, ascending.
			for j := 0; j < s.n; j++ {
				st := state[j]
				if st == isBasic || up[j] == 0 {
					continue
				}
				var alpha float64
				for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
					alpha += rho[s.rowIdx[q]] * s.vals[q]
				}
				if math.Abs(alpha) <= pivTol {
					continue
				}
				if viol < 0 {
					if !(st == atLower && alpha < 0 || st == atUpper && alpha > 0) {
						continue
					}
				} else if !(st == atLower && alpha > 0 || st == atUpper && alpha < 0) {
					continue
				}
				d := s.reducedCost(s.cost, j, y)
				var dabs float64
				if st == atLower {
					dabs = math.Max(d, 0)
				} else {
					dabs = math.Max(-d, 0)
				}
				ratio := dabs / math.Abs(alpha)
				if enter == -1 || ratio < bestRatio-1e-12 ||
					(ratio < bestRatio+1e-12 && math.Abs(alpha) > bestAbs) {
					enter, bestRatio, bestAbs = j, ratio, math.Abs(alpha)
				}
			}
		}
		if enter == -1 {
			// No column can push the leaving variable back: the row
			// proves there is no primal feasible point.
			return StatusInfeasible
		}

		s.direction(enter, w)
		piv := w[leave]
		exit := s.basic[leave]
		if math.Abs(piv) < pivTol || !s.basisPivot(leave, enter, w) {
			// Skipping the pivot would let the next candidate step past
			// this column's breakpoint and lose dual feasibility; hand
			// over instead.
			if s.lu != nil && !s.lu.ok {
				return StatusNumeric
			}
			return StatusIterLimit
		}
		if s.lu != nil && yOK {
			// Incremental dual update against the pre-pivot duals, before
			// state mutates: d_q = c_q − y·A_q is the entering column's
			// reduced cost and ρ is still this pivot's row.
			t := s.reducedCost(s.cost, enter, y) / piv
			if t != 0 {
				for _, i32 := range s.rhoNZp {
					y[i32] += t * rho[i32]
				}
			}
		}
		t := viol / piv

		var enterBase float64
		if state[enter] == atUpper {
			enterBase = up[enter]
		}
		if viol < 0 {
			state[exit] = atLower
		} else {
			state[exit] = atUpper
		}
		state[enter] = isBasic
		if s.lu != nil {
			s.pivotMovable(enter, exit)
		}
		// Move the basic values and re-key exactly the rows that moved:
		// the direction's pattern, which holds the leaving row.
		if s.lu != nil {
			for _, i32 := range s.wNZ {
				if wv := w[i32]; wv != 0 {
					s.xB[i32] -= t * wv
					s.rekey(int(i32))
				}
			}
		} else {
			for i := 0; i < m; i++ {
				if wv := w[i]; wv != 0 {
					s.xB[i] -= t * wv
					s.rekey(i)
				}
			}
		}
		s.xB[leave] = enterBase + t
		s.rekey(leave)

		if s.refactored {
			// Fresh factors: refresh the incrementally updated duals.
			s.refactored = false
			yOK = false
		}
		pivots++
	}
	return StatusIterLimit
}

// The dual simplex's leaving-row index. leaveKey[i] is row i's
// |violation|, or −1 when its basic value is within bounds; leaveWin[b]
// is the lowest row holding the largest key of the 64-row block b, or
// −1 when the block must be rescanned. A pivot re-keys only the rows it
// moved, and a block is rescanned only when its winner's key fell, so
// picking the leaving row costs ⌈m/64⌉ block reads, not an m-row scan.

// rowViol returns row i's signed violation: its basic value when below
// zero, its excess over the basic variable's upper bound when above,
// and 0 when within bounds. (An upper bound of +Inf needs no explicit
// check: xv > ub+tol is then false.)
func (s *simplex) rowViol(i int) float64 {
	xv := s.xB[i]
	if xv < -tol {
		return xv
	}
	if ub := s.up[s.basic[i]]; xv > ub+tol {
		return xv - ub
	}
	return 0
}

// rowKey is row i's key in the leaving-row index.
func (s *simplex) rowKey(i int) float64 {
	if v := s.rowViol(i); v != 0 {
		return math.Abs(v)
	}
	return -1
}

// buildLeaveIndex keys every row and marks every block for a rescan.
func (s *simplex) buildLeaveIndex() {
	nb := (s.m + 63) >> 6
	s.leaveKey = grow(s.leaveKey, s.m, s.m)
	s.leaveWin = grow(s.leaveWin, nb, nb)
	for i := range s.leaveKey {
		s.leaveKey[i] = s.rowKey(i)
	}
	for b := range s.leaveWin {
		s.leaveWin[b] = -1
	}
}

// rekey refreshes row i's key after its basic value or basic variable
// changed, keeping its block's winner exact or marking it stale.
func (s *simplex) rekey(i int) {
	key := s.leaveKey
	k, old := s.rowKey(i), key[i]
	key[i] = k
	b := i >> 6
	switch win := int(s.leaveWin[b]); {
	case win < 0: // stale: the next pick rescans the block
	case i == win:
		if k < old {
			s.leaveWin[b] = -1
		}
	case k > key[win] || k == key[win] && i < win:
		s.leaveWin[b] = int32(i)
	}
}

// pickLeave returns the most-violated row and its signed violation, or
// −1 when every row is within bounds. Ties go to the lowest row.
func (s *simplex) pickLeave() (int, float64) {
	key := s.leaveKey
	leave, best := -1, 0.0
	for b, win := range s.leaveWin {
		if win < 0 {
			lo, hi := b<<6, min(b<<6+64, s.m)
			win = int32(lo)
			for i := lo + 1; i < hi; i++ {
				if key[i] > key[win] {
					win = int32(i)
				}
			}
			s.leaveWin[b] = win
		}
		if key[win] > best {
			leave, best = int(win), key[win]
		}
	}
	if leave < 0 {
		return -1, 0
	}
	return leave, s.rowViol(leave)
}

// residualOK verifies the repaired basis against the original equations
// A·x = b: factorization drift accumulated across many warm pivots
// shows up here, triggering a cold refactorization instead of a wrong
// objective.
func (s *simplex) residualOK() bool {
	m := s.m
	s.resid = grow(s.resid, m, m)
	r := s.resid
	copy(r, s.b)
	maxB := 0.0
	for _, bv := range s.b {
		if a := math.Abs(bv); a > maxB {
			maxB = a
		}
	}
	sub := func(j int, v float64) {
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			r[s.rowIdx[q]] -= s.vals[q] * v
		}
	}
	for j := 0; j < s.n; j++ {
		if s.state[j] == atUpper && s.up[j] != 0 {
			sub(j, s.up[j])
		}
	}
	for i, j := range s.basic {
		if v := s.xB[i]; v != 0 {
			sub(j, v)
		}
	}
	lim := 1e2 * tol * (1 + maxB)
	for _, rv := range r {
		if math.Abs(rv) > lim {
			return false
		}
	}
	return true
}
