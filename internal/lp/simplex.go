package lp

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"metis/internal/fault"
	"metis/internal/obs"
)

// basisKind forces a basis representation. The zero value lets the row
// count decide (luAutoRows); the other two exist for in-package tests
// that hold the two representations against each other at one size.
type basisKind int8

const (
	basisBySize basisKind = iota
	basisInverse
	basisLU
)

// luAutoRows is the row count at which a solve switches from the dense
// basis inverse to the LU-factorized basis. Below it the m×m inverse
// fits comfortably in cache and its branch-free row operations win;
// above it the O(m²) per-pivot cost (and O(m²) memory) loses to sparse
// triangular solves, and only the O(nnz) factors make K=10000-scale
// instances (m ≈ 10⁴ rows) tractable. The dense inverse is also the
// differential reference for LU: both must agree on status and
// objective within tolerance on every instance (see the parity and
// fuzz tests).
const luAutoRows = 128

// pricingSection is the sectional-pricing window: the number of
// candidate columns priced per section before the best improving one
// (if any) is taken. Lists at most this long get a plain full scan.
const pricingSection = 1024

// tol is the simplex feasibility/optimality tolerance. It is typed so
// that constant expressions over it round as a float64 variable would.
const tol float64 = 1e-7

// Options tunes the simplex solver. Total simplex iterations across both
// phases are capped at 200 + 40·(rows+cols).
type Options struct {
	// Warm is an optional warm-start handle. When non-nil, Solve first
	// tries to repair the handle's retained basis with bounded-variable
	// dual simplex (or a primal cleanup) instead of running two-phase
	// simplex from scratch, falling back to the cold path whenever the
	// basis is stale or the repair stalls; either way the handle is
	// updated to the final basis for the next solve. Statuses and
	// objective values are identical to the cold solve (same optimum —
	// the vertex may differ). A nil Warm restores the exact cold-path
	// behavior, bit for bit.
	Warm *Basis
	// Tracer, when non-nil, receives one "lp.solve" span per Solve with
	// the problem shape, iteration count, final status and warm-path
	// outcome. Nil (the default) disables tracing entirely — no clock
	// reads, no allocations.
	Tracer obs.Tracer
	// Ctx, when non-nil, makes the solve cancellable: the simplex loops
	// poll ctx.Err() every 32 iterations and stop with StatusCanceled
	// when it fires. A nil Ctx (the default) skips the polls entirely, so
	// existing call sites behave bit-identically.
	Ctx context.Context

	// basis overrides the row-count choice of basis representation.
	basis basisKind
	// maxIters, when positive, replaces the iteration cap; in-package
	// tests use it to stop a solve early.
	maxIters int
}

func (o Options) withDefaults(m, n int) Options {
	if o.maxIters <= 0 {
		o.maxIters = 200 + 40*(m+n)
	}
	return o
}

// variable states in the simplex.
const (
	atLower = iota
	atUpper
	isBasic
)

// simplex holds the standard-form working problem:
//
//	min cost·x   s.t.  A x = b,  0 <= x_j <= up_j
//
// with columns stored in flat CSC arrays and the basis held either as a
// dense inverse in one contiguous row-major block or as sparse LU
// factors.
type simplex struct {
	m, n int // rows, total columns (structural + slack + artificial)

	// Working matrix, CSC: column j is rowIdx/vals[colPtr[j]:colPtr[j+1]],
	// row-sorted.
	colPtr []int32
	rowIdx []int32
	vals   []float64

	b    []float64 // rhs (>= 0 after normalization)
	cost []float64 // phase-2 costs
	up   []float64 // upper bounds (+Inf allowed); 0 = fixed

	nArt     int // number of artificial columns (they occupy the tail)
	artStart int

	state []int     // per column: atLower / atUpper / isBasic
	basic []int     // per row: basic column
	xB    []float64 // basic variable values
	// Basis representation: exactly one of the two is active. binv is
	// the dense m×m row-major basis inverse; lu is the sparse LU
	// factorization with in-place updates. All basis operations
	// dispatch on lu != nil.
	binv []float64
	lu   *luBasis
	// keys are the working matrix's key rows, found with the layout
	// when the basis is factorized and handed to every factor.
	keys keyRows

	opts  Options
	iters int

	// scratch buffers reused across iterations.
	y   []float64
	w   []float64
	nz  []int32
	rho []float64 // dual-simplex pivot row scratch (factorized mode)
	// wNZ is the nonzero pattern of the direction w in factorized mode:
	// ftranSparse returns it, the ratio test / basic-value update /
	// basis update iterate it, and the next direction solve clears w
	// through it. Meaningless (and unused) on the dense paths.
	wNZ []int32
	// Sparse-BTRAN buffers (factorized mode): cB gathers the basic cost
	// vector and is all-zero between uses (computeDuals re-zeroes the
	// cbNZ pattern after each solve); yNZp / rhoNZp are the output
	// patterns of the previous dual / pivot-row BTRANs, cleared before
	// the buffers are refilled.
	cB     []float64
	cbNZ   []int32
	yNZp   []int32
	rhoNZp []int32
	// yDense records that the last duals BTRAN ran dense (cost vector
	// too dense for the hypersparse path to win) and left y valid
	// everywhere; the next sparse call must then clear all of y instead
	// of just the yNZp pattern.
	yDense bool

	// Cold-solve scratch recycled through simplexPool: the phase-1 cost
	// vector, the slack-layout map and the row-sign vector. Like every
	// other working array they are fully rewritten (or explicitly
	// cleared) by Solve before use, so pooled garbage can never leak
	// into a solve.
	phase1  []float64
	slackNB []int
	signBuf []float64
	// iterate's pricing candidates and held-out columns, the dense
	// duals' cost-row list, and residualOK's residual: per-call scratch
	// kept with the arrays like the buffers above.
	cands    []int32
	held     []int32
	costRows []int
	resid    []float64

	// rowPtr/colInd/rVals mirror the working matrix's non-artificial
	// columns row-major (CSR) for the dual ratio test's pivot-row gather
	// (pricing.go); alpha* is the stamped pivot-row accumulator and
	// movable the gather's per-column filter.
	rowPtr     []int32
	colInd     []int32
	rVals      []float64
	csrOK      bool
	alpha      []alphaEntry
	alphaNZ    []int32
	alphaStamp int32
	movable    []bool
	// refactored is set by the LU refactorization paths so dualIterate
	// refreshes its incrementally updated duals against the new factors.
	refactored bool
	// leaveKey/leaveWin are dualIterate's leaving-row index (warm.go).
	leaveKey []float64
	leaveWin []int32
}

// simplexPool supplies the working arrays of a problem's first solve
// and takes back those Release returns. The arrays of one K=100 RL-SPM
// solve run to megabytes (Binv alone is m² floats), and the one-shot
// SPM relaxations release theirs for the next. A simplex that was
// captured into a warm-start Basis must never be released: the handle
// keeps using its arrays.
var simplexPool = sync.Pool{New: func() any { return new(simplex) }}

// release returns s's arrays to the pool. Callers must copy out
// anything they still need first and must not touch s afterwards.
func (s *simplex) release() {
	s.opts = Options{}
	simplexPool.Put(s)
}

// takeWork returns working arrays for a solve of p: the ones p kept
// from its last solve, else those of the warm handle the solve replaces
// (unless Clone shares them), else pooled ones.
func (p *Problem) takeWork(warm *Basis) *simplex {
	if s := p.work; s != nil {
		p.work = nil
		return s
	}
	if warm != nil && warm.sx != nil && !warm.shared {
		s := warm.sx
		warm.sx = nil
		warm.invalidate()
		return s
	}
	return simplexPool.Get().(*simplex)
}

// putWork keeps arrays a solve of p did not capture into a warm handle
// for p's next solve.
func (p *Problem) putWork(s *simplex) {
	if p.work != nil {
		s.release()
		return
	}
	s.opts = Options{}
	p.work = s
}

// grow returns a slice of length n, reusing buf's backing array when
// its capacity is at least c (c ≥ n; a larger c reserves room for
// append-style fills). The contents are unspecified — unlike make, the
// reuse path does NOT zero — so callers must fully initialize.
func grow[T any](buf []T, n, c int) []T {
	if cap(buf) >= c {
		return buf[:n]
	}
	return make([]T, n, c)
}

// Solve optimizes the problem. It returns a Solution whose Status is
// StatusOptimal, StatusInfeasible, StatusUnbounded, StatusIterLimit,
// StatusCanceled or StatusNumeric; X is populated only for
// StatusOptimal. An optimal Solution, with its X and Duals, is p's own
// and the next Solve of p rewrites it.
func (p *Problem) Solve(opts Options) (*Solution, error) {
	if p.sense != Minimize && p.sense != Maximize {
		return nil, fmt.Errorf("lp: invalid sense %d", p.sense)
	}
	var t0 time.Time
	if opts.Tracer != nil {
		t0 = time.Now()
	}
	if fault.Active() {
		fault.Hit("lp.solve")
	}
	outcome := warmOff
	var sol *Solution
	if opts.Ctx != nil && opts.Ctx.Err() != nil {
		// Already canceled: return before touching the basis, so a warm
		// handle survives for a retry.
		sol = &Solution{Status: StatusCanceled, Basis: opts.Warm}
		if opts.Warm != nil {
			outcome = warmCanceled
		}
	}
	if sol == nil && opts.Warm != nil {
		sol, outcome = p.solveWarm(opts)
		countWarm(outcome)
		// On a nil sol — stale basis, broken dual feasibility, or a
		// stalled repair — the cold path takes over and recaptures a
		// fresh basis into the handle.
	}
	if sol == nil {
		sol = p.solveCold(opts)
	}
	cSolves.Inc()
	cIters.Add(int64(sol.Iters))
	if sol.Status == StatusIterLimit {
		cIterLimit.Inc()
	}
	if sol.Status == StatusCanceled {
		cCanceled.Inc()
	}
	if opts.Tracer != nil {
		obs.Span(opts.Tracer, "lp.solve", t0, obs.Fields{
			"m":      len(p.rel),
			"n":      len(p.obj),
			"iters":  sol.Iters,
			"status": sol.Status.String(),
			"warm":   outcome.String(),
		})
	}
	return sol, nil
}

// solveCold runs two-phase primal simplex from the all-slack basis.
func (p *Problem) solveCold(opts Options) *Solution {
	nStruct := len(p.obj)
	m := len(p.rel)
	s := p.takeWork(opts.Warm)
	s.m, s.opts = m, opts.withDefaults(m, nStruct)
	s.iters = 0
	shiftObj := p.layout(s)
	sign := s.signBuf
	s.chooseBasis()
	s.slackBasis()
	if s.lu == nil {
		s.binv = grow(s.binv, m*m, m*m)
		clear(s.binv)
		for i := 0; i < m; i++ {
			s.binv[i*m+i] = 1
		}
	} else {
		s.refactorLU() // a +1 diagonal: never singular
	}

	// Dual cold start. At y = 0 every nonbasic column prices out at its
	// own cost, so when each negative-cost column has a finite upper
	// bound the all-slack basis is dual feasible outright — flip those
	// columns to their upper bound and every reduced cost has the
	// optimal sign. Locking the artificials at zero then turns phase 1
	// on its head: instead of minimizing Σ artificials with primal
	// pivots, the dual repair drives the now out-of-bounds artificial
	// rows back inside while KEEPING dual feasibility, and the basis it
	// lands on is primal and dual feasible at once — optimal, modulo the
	// certification scan below. On the SPM path LPs this replaces the
	// largest iteration block of a cold solve (all of phase 1 and most
	// of phase 2) with about one dual pivot per equality row. Gated to
	// the factorized basis. A stalled repair restores the pristine start
	// and falls back to classic two-phase.
	p1 := 0
	dualStart := false
	if s.nArt > 0 && s.lu != nil {
		eligible := true
		for j := 0; j < s.artStart; j++ {
			if s.cost[j] < 0 && math.IsInf(s.up[j], 1) {
				eligible = false
				break
			}
		}
		if eligible {
			dualStart = true
			cDualColdStarts.Inc()
			for j := s.artStart; j < s.n; j++ {
				s.up[j] = 0
			}
			for j := 0; j < s.artStart; j++ {
				if s.cost[j] < 0 && s.state[j] == atLower && s.up[j] > 0 {
					s.state[j] = atUpper
				}
			}
			s.refreshXB()
			st := StatusOptimal
			if !s.primalFeasible() {
				st = s.dualIterate()
			}
			switch st {
			case StatusOptimal:
				s.refreshXB()
				dualStart = s.primalFeasible()
			case StatusIterLimit:
				dualStart = false
			default:
				cPhase1Iters.Add(int64(s.iters))
				return p.end(s, st, opts.Warm)
			}
			if dualStart {
				p1 = s.iters
				cPhase1Iters.Add(int64(p1))
			} else {
				// Restore the pristine slack/artificial start for the
				// classic two-phase fallback. The repair's iterations stay
				// on s.iters, counting against the same iteration cap.
				cDualColdBails.Inc()
				for j := s.artStart; j < s.n; j++ {
					s.up[j] = math.Inf(1)
				}
				s.slackBasis()
				s.refactorLU()
			}
		}
	}

	// Phase 1: minimize the sum of artificials (skipped when none).
	if !dualStart && s.nArt > 0 {
		s.phase1 = grow(s.phase1, s.n, s.n)
		phase1 := s.phase1
		clear(phase1)
		for j := s.artStart; j < s.n; j++ {
			phase1[j] = 1
		}
		st := s.iterate(phase1)
		if st == StatusIterLimit || st == StatusCanceled || st == StatusNumeric {
			cPhase1Iters.Add(int64(s.iters))
			return p.end(s, st, opts.Warm)
		}
		if s.objective(phase1) > tol*(1+norm1(s.b)) {
			cPhase1Iters.Add(int64(s.iters))
			return p.end(s, StatusInfeasible, opts.Warm)
		}
		p1 = s.iters
		cPhase1Iters.Add(int64(p1))
		// Lock artificials at zero so phase 2 cannot reuse them.
		for j := s.artStart; j < s.n; j++ {
			s.up[j] = 0
			if s.state[j] != isBasic {
				s.state[j] = atLower
			}
		}
	}

	// Phase 2.
	st := s.iterate(s.cost)
	cPhase2Iters.Add(int64(s.iters - p1))
	if st != StatusOptimal {
		return p.end(s, st, opts.Warm)
	}

	s.refreshXB()
	sol := p.extract(s, sign, shiftObj)
	if opts.Warm != nil {
		opts.Warm.capture(p, s, sign)
		sol.Basis = opts.Warm
		sol.Degenerate = s.degenerateOptimum()
	} else {
		p.putWork(s)
	}
	return sol
}

// end finishes a cold solve that stopped short of an optimum: it drops
// the warm handle's basis, hands s back, and reports the status with
// the iterations run.
func (p *Problem) end(s *simplex, st Status, warm *Basis) *Solution {
	iters := s.iters
	warm.invalidate()
	p.putWork(s)
	return &Solution{Status: st, Iters: iters}
}

// layout builds s's working problem for p, as the cold path and a
// seeded basis both start from it: structural variables shifted to
// lower bound 0, rows normalized to a nonnegative rhs (s.b, with the
// signs in s.signBuf), and the column layout of layoutColumns. It
// returns the objective offset of the bound shift.
func (p *Problem) layout(s *simplex) float64 {
	m := len(p.rel)
	// The working matrix is rebuilt below, so any kept CSR mirror is
	// stale.
	s.csrOK = false
	mat := &p.matrix

	// Shift structural variables to lower bound 0 and compute the
	// adjusted rhs: b_i' = b_i − Σ_j a_ij·lo_j.
	s.b = grow(s.b, m, m)
	rhs := s.b
	copy(rhs, p.rhs)
	shiftObj := 0.0
	for j := range p.obj {
		if p.lo[j] == 0 {
			continue
		}
		for q := mat.colPtr[j]; q < mat.colPtr[j+1]; q++ {
			rhs[mat.rows[q]] -= mat.vals[q] * p.lo[j]
		}
		shiftObj += p.objCoef(j) * p.lo[j]
	}

	// Row normalization signs: rows with negative adjusted rhs flip.
	s.signBuf = grow(s.signBuf, m, m)
	sign := s.signBuf
	for i := range sign {
		if rhs[i] < 0 {
			sign[i] = -1
			rhs[i] = -rhs[i]
		} else {
			sign[i] = 1
		}
	}
	s.layoutColumns(p, mat, sign)
	return shiftObj
}

// layoutColumns lays out the working matrix [structural | slacks |
// artificials] of p under the given row signs: one slack per inequality
// row and one artificial per row left without a +1 slack. s.slackNB
// records each row's +1 slack column (the initial basic), or -1.
func (s *simplex) layoutColumns(p *Problem, mat *csc, sign []float64) {
	nStruct := len(p.obj)
	m := len(p.rel)
	s.slackNB = grow(s.slackNB, m, m)
	slackBasic := s.slackNB
	nSlack := 0
	for i := 0; i < m; i++ {
		slackBasic[i] = -1
		if p.rel[i] == LE || p.rel[i] == GE {
			nSlack++
		}
	}
	nnzStruct := len(mat.vals)
	s.colPtr = append(grow(s.colPtr, 0, nStruct+2*m+1), 0)
	s.rowIdx = grow(s.rowIdx, nnzStruct, nnzStruct+2*m)
	s.vals = grow(s.vals, nnzStruct, nnzStruct+2*m)
	s.cost = grow(s.cost, 0, nStruct+nSlack+m)
	s.up = grow(s.up, 0, nStruct+nSlack+m)

	// Structural columns: CSC values with normalized row signs.
	copy(s.rowIdx, mat.rows)
	for q, r := range mat.rows {
		s.vals[q] = mat.vals[q] * sign[r]
	}
	for j := 0; j < nStruct; j++ {
		s.colPtr = append(s.colPtr, mat.colPtr[j+1])
		s.cost = append(s.cost, p.objCoef(j))
		s.up = append(s.up, p.hi[j]-p.lo[j])
	}

	// Slack columns.
	for i := 0; i < m; i++ {
		var coef float64
		switch p.rel[i] {
		case LE:
			coef = 1
		case GE:
			coef = -1
		default:
			continue // EQ: no slack
		}
		coef *= sign[i]
		j := len(s.cost)
		s.rowIdx = append(s.rowIdx, int32(i))
		s.vals = append(s.vals, coef)
		s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
		s.cost = append(s.cost, 0)
		s.up = append(s.up, math.Inf(1))
		if coef > 0 {
			slackBasic[i] = j
		}
	}

	// Artificial columns for rows without a +1 slack.
	s.artStart = len(s.cost)
	s.nArt = 0
	for i := 0; i < m; i++ {
		if slackBasic[i] != -1 {
			continue
		}
		s.rowIdx = append(s.rowIdx, int32(i))
		s.vals = append(s.vals, 1)
		s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
		s.cost = append(s.cost, 0)
		s.up = append(s.up, math.Inf(1))
		s.nArt++
	}
	s.n = len(s.cost)
}

// slackBasis installs the initial basis of a layout: each row's +1
// slack, or else its artificial, at the row's rhs, and every other
// column nonbasic at its lower bound. The basis representation is left
// to the caller.
func (s *simplex) slackBasis() {
	m := s.m
	s.state = grow(s.state, s.n, s.n)
	clear(s.state) // atLower == 0
	s.basic = grow(s.basic, m, m)
	s.xB = grow(s.xB, m, m)
	s.y = grow(s.y, m, m)
	s.w = grow(s.w, m, m)
	s.nz = grow(s.nz, 0, m)
	art := s.artStart
	for i, j := range s.slackNB[:m] {
		if j == -1 {
			j = art
			art++
		}
		s.basic[i] = j
		s.state[j] = isBasic
		s.xB[i] = s.b[i]
	}
}

// extract decodes the optimal working basis into p's Solution: structural
// values shifted back by the lower bounds, the objective in the original
// sense, and shadow prices y = c_B^T·Binv mapped back through the row
// signs (and the sense flip for Maximize).
func (p *Problem) extract(s *simplex, sign []float64, shiftObj float64) *Solution {
	nStruct := len(p.obj)
	m := s.m
	// Structural values: seed basic entries from the basis map (one pass
	// instead of an O(m) scan per basic column), then shift and sum. The
	// per-column values and the objective's accumulation order match
	// value()-based extraction exactly.
	p.x = grow(p.x, nStruct, nStruct)
	x := p.x
	clear(x)
	for i, j := range s.basic {
		if j < nStruct {
			x[j] = s.xB[i]
		}
	}
	obj := shiftObj
	for j := 0; j < nStruct; j++ {
		v := x[j]
		if s.state[j] == atUpper {
			v = s.up[j]
		}
		x[j] = p.lo[j] + v
		obj += p.objCoef(j) * v
	}
	if p.sense == Maximize {
		obj = -obj
	}

	// Duals y = c_B^T·B⁻¹: one BTRAN against the factors, or accumulated
	// row-major over Binv (each duals[i] receives the same terms in the
	// same ascending-row order as the column-wise loop, so the result is
	// bit-identical, but Binv streams in storage order instead of
	// striding down columns).
	p.duals = grow(p.duals, m, m)
	duals := p.duals
	clear(duals)
	if s.lu != nil {
		c := s.lu.posBuf
		for i, j := range s.basic {
			c[i] = s.cost[j]
		}
		s.lu.btran(c, duals)
	} else {
		for r, j := range s.basic {
			cj := s.cost[j]
			if cj == 0 {
				continue
			}
			row := s.binv[r*m : r*m+m]
			for i, bv := range row {
				duals[i] += cj * bv
			}
		}
	}
	for i := 0; i < m; i++ {
		y := duals[i] * sign[i]
		if p.sense == Maximize {
			y = -y
		}
		duals[i] = y
	}
	sol := &p.sol
	*sol = Solution{Status: StatusOptimal, Objective: obj, X: x, Duals: duals, Iters: s.iters, Factorized: s.lu != nil}
	return sol
}

// chooseBasis picks the basis representation for the working problem's
// size — LU factors from luAutoRows rows up, the dense inverse below —
// unless opts.basis forces one. Both follow the same pricing rules; each
// has its own arithmetic.
func (s *simplex) chooseBasis() {
	useLU := s.m >= luAutoRows
	switch s.opts.basis {
	case basisInverse:
		useLU = false
	case basisLU:
		useLU = true
	}
	if !useLU || s.m == 0 {
		s.lu = nil
		return
	}
	if s.lu == nil {
		s.lu = new(luBasis)
	}
	s.lu.ok = false // factored once the initial basis is installed
	s.keys.find(s.m, s.colPtr, s.rowIdx, s.vals)
}

// objCoef returns the internal (minimization) objective coefficient.
func (p *Problem) objCoef(j int) float64 {
	if p.sense == Maximize {
		return -p.obj[j]
	}
	return p.obj[j]
}

// value returns the current value of column j (in shifted coordinates).
func (s *simplex) value(j int) float64 {
	switch s.state[j] {
	case isBasic:
		for i, bj := range s.basic {
			if bj == j {
				return s.xB[i]
			}
		}
		return 0
	case atUpper:
		return s.up[j]
	default:
		return 0
	}
}

func (s *simplex) objective(cost []float64) float64 {
	var obj float64
	for i, j := range s.basic {
		obj += cost[j] * s.xB[i]
	}
	for j := 0; j < s.n; j++ {
		if s.state[j] == atUpper {
			obj += cost[j] * s.up[j]
		}
	}
	return obj
}

// refreshXB recomputes basic values from scratch to shed accumulated
// floating-point drift: xB = B⁻¹·(b − Σ_{j at upper} A_j·up_j), by
// FTRAN against the factors or a dense multiply against Binv.
func (s *simplex) refreshXB() {
	m := s.m
	// s.w is free here — refreshXB only runs between iterate/dualIterate
	// passes, and direction fully rewrites w before every use — so borrow
	// it instead of allocating. Borrowing leaves it dirty: the LU
	// passes clear it before their first sparse solve.
	s.ensureScratch()
	rhs := s.w
	copy(rhs, s.b)
	for j := 0; j < s.n; j++ {
		if s.state[j] == atUpper && s.up[j] > 0 {
			for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
				rhs[s.rowIdx[q]] -= s.vals[q] * s.up[j]
			}
		}
	}
	if s.lu != nil {
		s.lu.ftran(rhs, s.xB)
		for i, v := range s.xB {
			if v < 0 && v > -tol {
				s.xB[i] = 0
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		var v float64
		row := s.binv[i*m : i*m+m]
		for r, bv := range row {
			v += bv * rhs[r]
		}
		if v < 0 && v > -tol {
			v = 0
		}
		s.xB[i] = v
	}
}

// ensureScratch sizes the per-iteration buffers y, w and nz to m. They
// regrow in place, so a basis grown by AppendColumn keeps its arrays; a
// buffer that changes size starts all-zero with no pattern, as the
// sparse solves require.
func (s *simplex) ensureScratch() {
	m := s.m
	if len(s.y) == m && len(s.w) == m {
		return
	}
	s.y = grow(s.y, m, m)
	clear(s.y)
	s.w = grow(s.w, m, m)
	clear(s.w)
	s.nz = grow(s.nz, 0, m)
	s.wNZ, s.yNZp, s.yDense = s.wNZ[:0], s.yNZp[:0], false
}

// refactorLU factors the current basis from scratch and records the
// factor-size counters. False means singular.
func (s *simplex) refactorLU() bool {
	cLUFactors.Inc()
	s.refactored = true // dualIterate refreshes incremental duals off this
	if !s.lu.factor(s.m, s.colPtr, s.rowIdx, s.vals, s.basic, &s.keys) {
		cLUSingular.Inc()
		return false
	}
	cLUFillNNZ.Add(int64(s.lu.nnz()))
	return true
}

// computeDuals fills y = c_B^T·B⁻¹ through whichever basis
// representation is active: a single BTRAN in factorized mode, or the
// blocked Binv accumulation. costRows is pass-through scratch for the
// dense path.
func (s *simplex) computeDuals(cost, y []float64, costRows []int) []int {
	if s.lu != nil {
		// Gather the basic costs and pick a BTRAN flavor by density:
		// the hypersparse path wins when few basic variables carry cost
		// (all of phase 1 once artificials start leaving, and any
		// objective over a small variable subset); with a dense cost
		// vector its reachability DFS visits nearly every step and the
		// plain dense solve is cheaper.
		cb := grow(s.cB, s.m, s.m)
		s.cB = cb
		cbNZ := s.cbNZ[:0]
		for i, j := range s.basic {
			if cj := cost[j]; cj != 0 {
				cb[i] = cj
				cbNZ = append(cbNZ, int32(i))
			}
		}
		if len(cbNZ)*16 > s.m {
			c := s.lu.posBuf
			clear(c)
			for _, p := range cbNZ {
				c[p] = cb[p]
				cb[p] = 0
			}
			s.cbNZ = cbNZ[:0]
			s.lu.btran(c, y) // overwrites all of y
			s.yDense = true
			return costRows
		}
		if s.yDense {
			clear(y)
			s.yDense = false
			s.yNZp = s.yNZp[:0]
		}
		cbNZ, s.yNZp = s.lu.btranSparse(cb, cbNZ, y, s.yNZp)
		for _, p := range cbNZ {
			cb[p] = 0
		}
		s.cbNZ = cbNZ[:0]
		return costRows
	}
	return s.buildDuals(cost, y, costRows)
}

// basisPivot makes enter basic at row leave, given its FTRAN direction
// w: an in-place update (or, when refused, a refactorization) of the
// LU factors, or the dense Binv row reduction. False means the
// post-pivot basis is singular. The pivot is then rejected: s.basic is
// left as it was and refactored, and the caller goes on without it
// (iterate holds enter out until its next accepted pivot; dualIterate
// hands over). If even that basis no longer factors, s.lu.ok is false
// and the solve cannot go on.
func (s *simplex) basisPivot(leave, enter int, w []float64) bool {
	exit := s.basic[leave]
	s.basic[leave] = enter
	if s.lu == nil {
		s.pivotBinv(leave, w)
		return true
	}
	switch s.lu.update(leave, enter, w, s.wNZ) {
	case updOK:
		cLUUpdates.Inc()
		return true
	case updUnstable:
		cLURefactorStab.Inc()
	case updGrowth:
		cLURefactorFill.Inc()
	}
	if s.refactorLU() {
		return true
	}
	s.basic[leave] = exit
	s.refactorLU()
	return false
}

// buildDuals fills y = c_B^T · Binv: one contiguous Binv row per basic
// variable with a nonzero cost. costRows is scratch for the list of
// contributing rows; the (possibly regrown) list is returned so callers
// can keep reusing it. Rows are processed in blocks of eight then four
// so y is loaded/stored once per block; the adds onto each y[i] stay in
// ascending row order, so the result is bit-identical to the
// row-at-a-time loop.
func (s *simplex) buildDuals(cost, y []float64, costRows []int) []int {
	m := s.m
	for i := range y {
		y[i] = 0
	}
	costRows = costRows[:0]
	for r, j := range s.basic {
		if cost[j] != 0 {
			costRows = append(costRows, r)
		}
	}
	r := 0
	for ; r+8 <= len(costRows); r += 8 {
		r0, r1, r2, r3 := costRows[r], costRows[r+1], costRows[r+2], costRows[r+3]
		r4, r5, r6, r7 := costRows[r+4], costRows[r+5], costRows[r+6], costRows[r+7]
		c0, c1, c2, c3 := cost[s.basic[r0]], cost[s.basic[r1]], cost[s.basic[r2]], cost[s.basic[r3]]
		c4, c5, c6, c7 := cost[s.basic[r4]], cost[s.basic[r5]], cost[s.basic[r6]], cost[s.basic[r7]]
		row0 := s.binv[r0*m : r0*m+m]
		row1 := s.binv[r1*m : r1*m+m]
		row2 := s.binv[r2*m : r2*m+m]
		row3 := s.binv[r3*m : r3*m+m]
		row4 := s.binv[r4*m : r4*m+m]
		row5 := s.binv[r5*m : r5*m+m]
		row6 := s.binv[r6*m : r6*m+m]
		row7 := s.binv[r7*m : r7*m+m]
		for i := range y {
			acc := y[i] + c0*row0[i]
			acc = acc + c1*row1[i]
			acc = acc + c2*row2[i]
			acc = acc + c3*row3[i]
			acc = acc + c4*row4[i]
			acc = acc + c5*row5[i]
			acc = acc + c6*row6[i]
			y[i] = acc + c7*row7[i]
		}
	}
	for ; r+4 <= len(costRows); r += 4 {
		r0, r1, r2, r3 := costRows[r], costRows[r+1], costRows[r+2], costRows[r+3]
		c0, c1, c2, c3 := cost[s.basic[r0]], cost[s.basic[r1]], cost[s.basic[r2]], cost[s.basic[r3]]
		row0 := s.binv[r0*m : r0*m+m]
		row1 := s.binv[r1*m : r1*m+m]
		row2 := s.binv[r2*m : r2*m+m]
		row3 := s.binv[r3*m : r3*m+m]
		for i := range y {
			acc := y[i] + c0*row0[i]
			acc = acc + c1*row1[i]
			acc = acc + c2*row2[i]
			y[i] = acc + c3*row3[i]
		}
	}
	for ; r < len(costRows); r++ {
		r0 := costRows[r]
		cj := cost[s.basic[r0]]
		row := s.binv[r0*m : r0*m+m]
		for i, bv := range row {
			y[i] += cj * bv
		}
	}
	return costRows
}

// iterate runs primal simplex iterations with the given cost vector
// until optimality, unboundedness, or the iteration limit. It returns
// StatusOptimal when no improving entering variable exists, and
// StatusNumeric only when the basis a rejected pivot returns to no
// longer factors, or every improving column is held out by one.
//
// The hot loops are laid out for memory behavior: the dual update
// streams over contiguous Binv rows, pricing walks flat CSC arrays, and
// the direction solve accumulates per row so Binv is read in row order
// instead of striding down a column.
func (s *simplex) iterate(cost []float64) Status {
	m := s.m
	s.ensureScratch()
	degenerate := 0

	// The anti-cycling ladder has three rungs. On rung 0 sectional
	// Dantzig drives the scan and the ratio test sends near-equal ratios
	// to the largest |pivot|, then the first row. More than 40 zero
	// steps in a row demote to rung 1, where equal |pivot|s go by
	// tieOrder instead; more than m further zero steps demote to rung
	// 2, Bland's rule. Real progress promotes back to rung 0.
	rung := 0

	// Pivot/flip/degenerate/pricing tallies stay in locals through the
	// hot loop and flush to the atomic counters once per iterate call.
	pivots, flips, degenTotal := 0, 0, 0
	priced, fallbacks := 0, 0
	defer func() {
		if pivots != 0 {
			cPivots.Add(int64(pivots))
		}
		if flips != 0 {
			cBoundFlips.Add(int64(flips))
		}
		if degenTotal != 0 {
			cDegenerate.Add(int64(degenTotal))
		}
		if priced != 0 {
			cPricingScanned.Add(int64(priced))
		}
		if fallbacks != 0 {
			cPricingFallbacks.Add(int64(fallbacks))
		}
	}()

	y, w := s.y, s.w
	if s.lu != nil {
		// Establish the hypersparse buffer invariants: w and y all-zero
		// with no previous pattern (w may be dense-dirty — refreshXB
		// borrows it — and a pooled pattern may index a larger previous
		// problem).
		clear(w)
		clear(y)
		s.wNZ = s.wNZ[:0]
		s.yNZp = s.yNZp[:0]
		s.yDense = false
	}
	colPtr, rowIdx, vals := s.colPtr, s.rowIdx, s.vals
	state, up := s.state, s.up
	costRows := s.costRows[:0] // rows whose basic variable has nonzero cost

	// Pricing candidates: nonbasic columns that can move (up > 0),
	// ascending. Kept sorted across pivots so both Dantzig ties and
	// Bland's rule see columns in exactly the order the full scan did;
	// columns not on the list would be skipped by that scan anyway.
	cands := s.cands[:0]
	for j := 0; j < s.n; j++ {
		if state[j] != isBasic && up[j] != 0 {
			cands = append(cands, int32(j))
		}
	}
	// held lists the entering columns of rejected pivots (basisPivot),
	// kept off cands until the next accepted pivot changes the basis.
	held := s.held[:0]
	defer func() { s.cands, s.held, s.costRows = cands, held, costRows }()

	// Sectional (partial) pricing state. Pricing every candidate on
	// every iteration is the single largest per-iteration cost once the
	// basis work is factorized, and Dantzig's "globally most negative"
	// rule only changes the path taken, not the optimum. So candidates
	// are priced in fixed-size sections starting at a rotating cursor:
	// the first section containing an improving column supplies the
	// entering variable (best within that section), and a full wrap with
	// no improving column is exactly the optimality proof the full scan
	// used. Bland's rule bypasses the cursor and takes the first
	// improving column of a whole-list ordered scan, preserving its
	// anti-cycling termination guarantee.
	//
	// yValid tracks whether y still prices the current basis: a bound
	// flip changes only state[enter] — basis, factors and y are
	// untouched — so the next iteration skips the BTRAN and re-prices
	// against the same duals; any pivot invalidates y.
	cursor := 0
	yValid := false
	ctx := s.opts.Ctx

	for ; s.iters < s.opts.maxIters; s.iters++ {
		// Cancellation poll, batched so the hot loop pays one mask-and-
		// branch per iteration and a ctx.Err() call every 32nd. The poll
		// sits at the iteration boundary, before any pivot work, so a
		// canceled return always leaves a consistent basis. 32 keeps the
		// worst-case deadline overshoot to a few ms even at K=10⁴, where
		// one iteration's BTRAN/FTRAN pair runs ~100µs.
		if ctx != nil && s.iters&31 == 0 && ctx.Err() != nil {
			return StatusCanceled
		}
		if !yValid {
			costRows = s.computeDuals(cost, y, costRows)
			yValid = true
		}

		enter := -1
		var enterDir float64
		if rung == 2 {
			for bi, j32 := range cands {
				j := int(j32)
				st := state[j]
				d := s.reducedCost(cost, j, y)
				if st == atLower && d < -tol {
					enter, enterDir = j, 1
					priced += bi + 1
					break
				}
				if st == atUpper && d > tol {
					enter, enterDir = j, -1
					priced += bi + 1
					break
				}
			}
			if enter == -1 {
				priced += len(cands)
			}
		} else {
			nc := len(cands)
			if cursor >= nc {
				cursor = 0
			}
			base, scanned := cursor, 0
			var enterD float64
			for scanned < nc && enter == -1 {
				sect := pricingSection
				if rem := nc - scanned; sect > rem {
					sect = rem
				}
				if tail := nc - base; sect > tail {
					sect = tail
				}
				for _, j32 := range cands[base : base+sect] {
					j := int(j32)
					st := state[j]
					d := cost[j]
					start, end := colPtr[j], colPtr[j+1]
					ri := rowIdx[start:end]
					vv := vals[start:end][:len(ri)]
					for k, rq := range ri {
						d -= y[rq] * vv[k]
					}
					var improving bool
					var dir float64
					if st == atLower && d < -tol {
						improving, dir = true, 1
					} else if st == atUpper && d > tol {
						improving, dir = true, -1
					}
					if !improving {
						continue
					}
					if enter == -1 || math.Abs(d) > math.Abs(enterD) {
						enter, enterD, enterDir = j, d, dir
					}
				}
				scanned += sect
				if base += sect; base >= nc {
					base = 0
				}
			}
			priced += scanned
			cursor = base
		}
		if enter == -1 {
			if len(held) > 0 {
				return StatusNumeric
			}
			return StatusOptimal
		}

		s.direction(enter, w)

		// Ratio test. In factorized mode only the direction's nonzero
		// pattern is scanned; rows outside it have w[i] == 0 and cannot
		// limit the step.
		theta := up[enter] // bound-flip limit (may be +Inf)
		leave := -1
		leaveTo := atLower
		const pivTol = 1e-9
		nRows := m
		if s.lu != nil {
			nRows = len(s.wNZ)
		}
		for ii := 0; ii < nRows; ii++ {
			i := ii
			if s.lu != nil {
				i = int(s.wNZ[ii])
			}
			if w[i] == 0 {
				continue
			}
			g := enterDir * w[i]
			var limit float64
			var to int
			if g > pivTol {
				limit, to = s.xB[i]/g, atLower
			} else if g < -pivTol {
				ub := up[s.basic[i]]
				if math.IsInf(ub, 1) {
					continue
				}
				limit, to = (ub-s.xB[i])/-g, atUpper
			} else {
				continue
			}
			// Tie-break among (near-)equal ratios: normally the largest
			// |pivot| for numerical stability; under Bland's rule the
			// smallest basic column index — the leaving-variable half of
			// the anti-cycling guarantee, without which Bland's entering
			// rule alone can still cycle on degenerate plateaus.
			if limit < theta-1e-12 {
				theta, leave, leaveTo = limit, i, to
			} else if limit < theta+1e-12 && leave != -1 {
				if rung == 2 {
					if s.basic[i] < s.basic[leave] {
						theta, leave, leaveTo = limit, i, to
					}
				} else if a, b := math.Abs(g), math.Abs(w[leave]); a > b ||
					rung == 1 && a == b && tieOrder(s.basic[i], s.iters) < tieOrder(s.basic[leave], s.iters) {
					theta, leave, leaveTo = limit, i, to
				}
			}
		}
		if math.IsInf(theta, 1) {
			return StatusUnbounded
		}
		if theta < 0 {
			theta = 0
		}
		exit := -1
		if leave != -1 {
			exit = s.basic[leave]
		}
		if exit != -1 && !s.basisPivot(leave, enter, w) {
			// The basis enter makes is singular: hold enter out and
			// price again from the basis it would have left.
			if !s.lu.ok {
				return StatusNumeric
			}
			held = append(held, int32(enter))
			if i, ok := slices.BinarySearch(cands, int32(enter)); ok {
				cands = slices.Delete(cands, i, i+1)
			}
			yValid = false
			continue
		}

		// Anti-cycling ladder: each run of degenerate pivots demotes one
		// rung. Rung 2 holds until real progress, and Bland's rule
		// guarantees that it comes, so every plateau ends.
		if theta <= 1e-12 {
			degenerate++
			degenTotal++
			if rung == 0 && degenerate > 40 || rung == 1 && degenerate > m {
				rung++
				degenerate = 0
				fallbacks++
			}
		} else {
			degenerate = 0
			rung = 0
		}

		// Move basic variables. A degenerate step (theta == 0) moves
		// nothing, and rows with w[i] == 0 are unchanged, so both are
		// skipped; every skipped entry was clamped when it was last
		// written, so the clamp below cannot fire on it either.
		if theta != 0 {
			if s.lu != nil {
				for _, i32 := range s.wNZ {
					i := int(i32)
					wv := w[i]
					if wv == 0 {
						continue
					}
					s.xB[i] -= enterDir * theta * wv
					if s.xB[i] < 0 && s.xB[i] > -tol {
						s.xB[i] = 0
					}
				}
			} else {
				for i := 0; i < m; i++ {
					wv := w[i]
					if wv == 0 {
						continue
					}
					s.xB[i] -= enterDir * theta * wv
					if s.xB[i] < 0 && s.xB[i] > -tol {
						s.xB[i] = 0
					}
				}
			}
		}

		if leave == -1 {
			// Bound flip: the entering variable crosses its whole range.
			// The basis is untouched, so y stays valid and the next
			// iteration skips the BTRAN.
			if state[enter] == atLower {
				state[enter] = atUpper
			} else {
				state[enter] = atLower
			}
			flips++
			continue
		}
		pivots++
		yValid = false

		// Pivot: basisPivot made enter basic in exit's place.
		state[exit] = leaveTo
		var enterVal float64
		if enterDir > 0 {
			enterVal = theta
		} else {
			enterVal = up[enter] - theta
		}
		state[enter] = isBasic
		s.xB[leave] = enterVal

		// Candidate bookkeeping: enter left the pool, exit and the held
		// columns rejoined it (unless permanently fixed at zero).
		if i, ok := slices.BinarySearch(cands, int32(enter)); ok {
			cands = slices.Delete(cands, i, i+1)
		}
		if i, ok := slices.BinarySearch(cands, int32(exit)); !ok && up[exit] != 0 {
			cands = slices.Insert(cands, i, int32(exit))
		}
		for _, j := range held {
			i, _ := slices.BinarySearch(cands, j)
			cands = slices.Insert(cands, i, j)
		}
		held = held[:0]
	}
	return StatusIterLimit
}

// tieOrder ranks basic column j for rung 1's ratio-test ties at
// iteration it: a hash, so the order is fixed for one iteration and
// unrelated to the next one's. A cycle whose ties are resolved afresh
// each time around is unlikely to repeat (the random choice rule),
// which ends most plateaus before Bland's rule must: its leaving rule
// picks a row whatever the pivot's size, and on the nearly parallel
// rows of an SPM relaxation with cut rows it crawls (DESIGN.md,
// "Anti-cycling at scale").
func tieOrder(j, it int) uint64 {
	x := uint64(j)*0x9e3779b97f4a7c15 ^ uint64(it)*0xbf58476d1ce4e5b9
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	return x ^ x>>29
}

// direction computes w = B⁻¹ · A_enter: an FTRAN against the factors
// in factorized mode, else accumulated row by row so Binv is traversed
// in storage order.
func (s *simplex) direction(enter int, w []float64) {
	m := s.m
	colPtr, rowIdx, vals := s.colPtr, s.rowIdx, s.vals
	if s.lu != nil {
		// Hypersparse solve: w is all-zero outside the previous pattern
		// (the caller established that before the first call), so
		// clearing that pattern re-establishes the invariant.
		for _, p := range s.wNZ {
			w[p] = 0
		}
		start, end := colPtr[enter], colPtr[enter+1]
		s.wNZ = s.lu.ftranSparse(rowIdx[start:end], vals[start:end], w)
		return
	}
	start, end := colPtr[enter], colPtr[enter+1]
	if end-start == 1 {
		// Slack/artificial fast path: w is one Binv column.
		r := int(rowIdx[start])
		v := vals[start]
		for i := 0; i < m; i++ {
			w[i] = s.binv[i*m+r] * v
		}
		return
	}
	// Four Binv rows per pass share one walk of the column's
	// index/value lists; each w[i] still accumulates its own
	// terms in entry order.
	ri := rowIdx[start:end]
	vv := vals[start:end][:len(ri)]
	i := 0
	for ; i+4 <= m; i += 4 {
		row0 := s.binv[i*m : i*m+m]
		row1 := s.binv[(i+1)*m : (i+1)*m+m]
		row2 := s.binv[(i+2)*m : (i+2)*m+m]
		row3 := s.binv[(i+3)*m : (i+3)*m+m]
		var a0, a1, a2, a3 float64
		for k, r := range ri {
			v := vv[k]
			a0 += row0[r] * v
			a1 += row1[r] * v
			a2 += row2[r] * v
			a3 += row3[r] * v
		}
		w[i] = a0
		w[i+1] = a1
		w[i+2] = a2
		w[i+3] = a3
	}
	for ; i < m; i++ {
		row := s.binv[i*m : i*m+m]
		var acc float64
		for k, r := range ri {
			acc += row[r] * vv[k]
		}
		w[i] = acc
	}
}

// pivotBinv applies the basis-change row reduction to Binv: the pivot
// row `leave` is scaled by 1/w[leave] and eliminated from every other
// row with a nonzero multiplier.
func (s *simplex) pivotBinv(leave int, w []float64) {
	m := s.m
	piv := w[leave]
	rowL := s.binv[leave*m : leave*m+m]
	inv := 1 / piv
	nzL := s.nz[:0]
	for k := range rowL {
		if rowL[k] != 0 {
			rowL[k] *= inv
			nzL = append(nzL, int32(k))
		}
	}
	s.nz = nzL
	if len(nzL)*4 < m*3 {
		// Sparse pivot row: touch only its nonzero positions. The
		// skipped positions would subtract f·0, which changes
		// nothing (at most the sign of a zero, which no comparison
		// downstream distinguishes).
		for i := 0; i < m; i++ {
			if i == leave {
				continue
			}
			f := w[i]
			if f == 0 {
				continue
			}
			row := s.binv[i*m : i*m+m]
			for _, k := range nzL {
				row[k] -= f * rowL[k]
			}
		}
		return
	}
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := w[i]
		if f == 0 {
			continue
		}
		row := s.binv[i*m : i*m+m]
		// Unrolled axpy row -= f·rowL; each element is
		// independent, so the result matches the scalar loop.
		k := 0
		for ; k+4 <= m; k += 4 {
			row[k] -= f * rowL[k]
			row[k+1] -= f * rowL[k+1]
			row[k+2] -= f * rowL[k+2]
			row[k+3] -= f * rowL[k+3]
		}
		for ; k < m; k++ {
			row[k] -= f * rowL[k]
		}
	}
}

func norm1(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Abs(x)
	}
	return s
}
