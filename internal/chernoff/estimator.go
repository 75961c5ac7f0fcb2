package chernoff

import (
	"fmt"
	"math"

	"metis/internal/sched"
)

// Decline is the estimator option index for declining a request (the
// paper's virtual path P_{i, L_i+1}).
const Decline = -1

// Estimator is the pessimistic estimator u_root of the paper's Section
// IV: a sum of one Chernoff lower-tail term for the service revenue and
// one upper-tail term per (link, slot) capacity constraint. Walking the
// decision tree while keeping u_root minimal implements the method of
// conditional probabilities.
//
// All rates, values and capacities are normalized to [0, 1] internally
// (dividing by the max rate / max value), matching the paper's setup.
//
// Its per-request and per-term tables are flat arrays that Reset
// rebuilds in place, so a caller that walks one estimator per round
// (TAA inside a Metis solve) allocates them about once.
type Estimator struct {
	inst *sched.Instance

	mu     float64
	t0     float64 // revenue tilt: ln(1 + D(I_S, 1/(N+1)))
	lambda float64 // capacity tilt: ln(1/µ) = ln(1 + (1−µ)/µ)

	vmax, rmax float64
	is         float64 // I_S = µ·(normalized relaxed revenue)
	ib         float64 // I_B = I_S·(1 − D(I_S, 1/(N+1)))

	// u[0] is the revenue term (or 0 when disabled); u[1:] are the
	// capacity terms, one per (link, slot) pair with potential load.
	u          []float64
	hasRevenue bool

	// Per-request sparse incidence: touched[touchOff[i]:touchEnd[i]]
	// lists, in ascending order, the estimator indices whose factor for
	// request i differs from 1 while i is undecided; undec holds those
	// factors at the same positions. Decide empties the range.
	touchOff, touchEnd []int32
	touched            []int32
	undec              []float64

	// estLink/estSlot identify capacity estimators (index ≥ 1).
	estLink, estSlot []int

	// expRate[i] = e^{λ·r'_i}; expVal[i] = e^{−t0·v'_i}.
	expRate, expVal []float64

	// accept[pathOff[i]+j] = µ·x̂[i][j], the scaled probability that
	// request i takes path j.
	pathOff []int
	accept  []float64

	// Build scratch (see build).
	cellEst  []int32   // (link, slot) → estimator index, 0 = none
	linkProb []float64 // per link: one request's scaled load probability
	reqOff   []int32   // request i's links: reqLink[reqOff[i]:reqOff[i+1]]
	reqLink  []int32
	reqProb  []float64
	estOff   []int32 // estimator m's requests: estReq[estOff[m]:estOff[m+1]]
	estReq   []int32
	estProb  []float64
	fill     []int32
}

// NewEstimator builds the pessimistic estimator for inst under the
// given capacities (caps[e][t], possibly time-varying) and the relaxed
// BL-SPM routing x̂ (rows may sum to less than 1), scaled by µ.
func NewEstimator(inst *sched.Instance, caps [][]float64, xhat [][]float64, mu float64) (*Estimator, error) {
	e := new(Estimator)
	if err := e.Reset(inst, caps, xhat, mu); err != nil {
		return nil, err
	}
	return e, nil
}

// Reset rebuilds e as NewEstimator(inst, caps, xhat, mu) would, in the
// arrays of its last build. After an error e must be Reset again before
// it is used.
func (e *Estimator) Reset(inst *sched.Instance, caps [][]float64, xhat [][]float64, mu float64) error {
	if len(caps) != inst.Network().NumLinks() {
		return fmt.Errorf("chernoff: capacity matrix has %d links, want %d", len(caps), inst.Network().NumLinks())
	}
	for e := range caps {
		if len(caps[e]) != inst.Slots() {
			return fmt.Errorf("chernoff: capacity matrix link %d has %d slots, want %d", e, len(caps[e]), inst.Slots())
		}
	}
	if len(xhat) != inst.NumRequests() {
		return fmt.Errorf("chernoff: x̂ covers %d requests, instance has %d", len(xhat), inst.NumRequests())
	}
	if mu <= 0 || mu >= 1 {
		return fmt.Errorf("chernoff: µ = %v outside (0, 1)", mu)
	}

	e.inst, e.mu, e.lambda = inst, mu, math.Log(1/mu)
	e.t0, e.vmax, e.rmax, e.is, e.ib, e.hasRevenue = 0, 0, 0, 0, 0, false
	n := inst.NumRequests()

	for i := 0; i < n; i++ {
		r := inst.Request(i)
		if r.Rate > e.rmax {
			e.rmax = r.Rate
		}
		if r.Value > e.vmax {
			e.vmax = r.Value
		}
	}
	if e.rmax <= 0 {
		return fmt.Errorf("chernoff: no positive request rate")
	}

	// Scaled acceptance probabilities and the scaled expected revenue.
	e.pathOff = resize(e.pathOff, n+1)
	e.accept = e.accept[:0]
	var isNorm float64
	for i := 0; i < n; i++ {
		if len(xhat[i]) != inst.NumPaths(i) {
			return fmt.Errorf("chernoff: x̂[%d] has %d entries, want %d", i, len(xhat[i]), inst.NumPaths(i))
		}
		e.pathOff[i] = len(e.accept)
		var rowSum float64
		for _, v := range xhat[i] {
			if v < 0 {
				v = 0
			}
			e.accept = append(e.accept, mu*v)
			rowSum += v
		}
		if rowSum > 1+1e-6 {
			return fmt.Errorf("chernoff: x̂[%d] sums to %v > 1", i, rowSum)
		}
		if e.vmax > 0 {
			isNorm += mu * rowSum * inst.Request(i).Value / e.vmax
		}
	}
	e.pathOff[n] = len(e.accept)
	e.is = isNorm

	// Revenue tilt. Skipped when the scaled expected revenue vanishes —
	// there is nothing to guarantee.
	if e.is > 1e-12 {
		delta, err := D(e.is, 1/float64(inst.Network().NumLinks()+1))
		if err != nil {
			return err
		}
		e.t0 = math.Log1p(delta)
		// I_B below zero is a vacuous target (any schedule clears it);
		// clamping keeps the estimator a valid, finite upper bound.
		e.ib = math.Max(0, e.is*(1-delta))
		e.hasRevenue = true
	}

	e.expRate = resize(e.expRate, n)
	e.expVal = resize(e.expVal, n)
	for i := 0; i < n; i++ {
		r := inst.Request(i)
		e.expRate[i] = math.Exp(e.lambda * r.Rate / e.rmax)
		if e.vmax > 0 {
			e.expVal[i] = math.Exp(-e.t0 * r.Value / e.vmax)
		} else {
			e.expVal[i] = 1
		}
	}

	e.build(caps)
	return nil
}

// resize returns buf with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n)
}

// build enumerates capacity estimators and the per-request incidence,
// then initializes every u term with all requests undecided. Estimator
// indices are handed out in order of first use: request by request,
// each request's links in the order its paths first reach them, slots
// ascending.
func (e *Estimator) build(caps [][]float64) {
	inst := e.inst
	n := inst.NumRequests()
	slots := inst.Slots()
	links := inst.Network().NumLinks()

	// Pass 1: per request, the scaled probability that its chosen path
	// uses each link (µ·Σ_{j uses link} x̂[i][j], summed over j in
	// order), and the estimator index of every (link, slot) it may load.
	e.cellEst = resize(e.cellEst, links*slots)
	clear(e.cellEst)
	e.linkProb = resize(e.linkProb, links)
	clear(e.linkProb)
	e.reqOff = resize(e.reqOff, n+1)
	e.reqLink, e.reqProb = e.reqLink[:0], e.reqProb[:0]
	e.estLink = append(e.estLink[:0], -1) // index 0 is the revenue term
	e.estSlot = append(e.estSlot[:0], -1)
	e.estOff = append(e.estOff[:0], 0)
	for i := 0; i < n; i++ {
		r := inst.Request(i)
		first := len(e.reqLink)
		e.reqOff[i] = int32(first)
		for j := 0; j < inst.NumPaths(i); j++ {
			p := e.accept[e.pathOff[i]+j]
			if p == 0 {
				continue
			}
			for _, l := range inst.Path(i, j).Links {
				if e.linkProb[l] == 0 {
					e.reqLink = append(e.reqLink, int32(l))
				}
				e.linkProb[l] += p
			}
		}
		for _, l := range e.reqLink[first:] {
			e.reqProb = append(e.reqProb, e.linkProb[l])
			e.linkProb[l] = 0
			for t := r.Start; t <= r.End; t++ {
				key := int(l)*slots + t
				id := e.cellEst[key]
				if id == 0 {
					id = int32(len(e.estLink))
					e.cellEst[key] = id
					e.estLink = append(e.estLink, int(l))
					e.estSlot = append(e.estSlot, t)
					e.estOff = append(e.estOff, 0)
				}
				e.estOff[id]++
			}
		}
	}
	e.reqOff[n] = int32(len(e.reqLink))
	nEst := len(e.estLink)

	// Pass 2: each estimator's requests, in request order, in one flat
	// array (estOff[m] counted m's requests; make it m's start).
	var sum int32
	for m := 1; m < nEst; m++ {
		sum, e.estOff[m] = sum+e.estOff[m], sum
	}
	e.estOff = append(e.estOff, sum)
	e.estReq, e.estProb = resize(e.estReq, int(sum)), resize(e.estProb, int(sum))
	e.fill = append(e.fill[:0], e.estOff...)
	for i := 0; i < n; i++ {
		r := inst.Request(i)
		for q := e.reqOff[i]; q < e.reqOff[i+1]; q++ {
			l := int(e.reqLink[q])
			for t := r.Start; t <= r.End; t++ {
				id := e.cellEst[l*slots+t]
				e.estReq[e.fill[id]] = int32(i)
				e.estProb[e.fill[id]] = e.reqProb[q]
				e.fill[id]++
			}
		}
	}

	// Initialize u values and the per-request incidence lists: the
	// revenue term first, then the capacity terms in index order.
	e.u = resize(e.u, nEst)
	clear(e.u)
	e.touchOff = resize(e.touchOff, n+1)
	e.touchEnd = resize(e.touchEnd, n)
	var total int32
	for i := 0; i < n; i++ {
		e.touchOff[i] = total
		if e.hasRevenue && e.revUndecided(i) != 1 {
			total++
		}
		r := inst.Request(i)
		total += (e.reqOff[i+1] - e.reqOff[i]) * int32(r.End-r.Start+1)
	}
	e.touchOff[n] = total
	e.touched = resize(e.touched, int(total))
	e.undec = resize(e.undec, int(total))
	copy(e.touchEnd, e.touchOff[:n])
	if e.hasRevenue {
		u := math.Exp(e.t0 * e.ib)
		for i := 0; i < n; i++ {
			f := e.revUndecided(i)
			u *= f
			if f != 1 {
				e.touch(i, 0, f)
			}
		}
		e.u[0] = u
	}
	for m := 1; m < nEst; m++ {
		l, t := e.estLink[m], e.estSlot[m]
		cNorm := caps[l][t] / e.rmax
		u := math.Exp(-e.lambda * cNorm)
		for q := e.estOff[m]; q < e.estOff[m+1]; q++ {
			i := e.estReq[q]
			// Undecided factor: 1 + p·(e^{λr'} − 1).
			f := 1 + e.estProb[q]*(e.expRate[i]-1)
			u *= f
			e.touch(int(i), m, f)
		}
		e.u[m] = u
	}
}

// touch appends estimator m, with request i's undecided factor f in it,
// to i's incidence list.
func (e *Estimator) touch(i, m int, f float64) {
	q := e.touchEnd[i]
	e.touched[q] = int32(m)
	e.undec[q] = f
	e.touchEnd[i] = q + 1
}

// revUndecided returns request i's undecided factor in the revenue
// term: E[e^{−t0·v'_i·X_i}] = A_i·e^{−t0·v'_i} + (1 − A_i).
func (e *Estimator) revUndecided(i int) float64 {
	var a float64
	for _, p := range e.accept[e.pathOff[i]:e.pathOff[i+1]] {
		a += p
	}
	return a*e.expVal[i] + (1 - a)
}

// URoot returns the current value of the pessimistic estimator.
func (e *Estimator) URoot() float64 {
	var s float64
	for _, v := range e.u {
		s += v
	}
	return s
}

// IBValue returns the revenue target I_B = I_S·(1 − D(I_S, 1/(N+1))),
// with I_S = µ·Î' the scaled normalized expected revenue, converted back
// to un-normalized revenue units.
func (e *Estimator) IBValue() float64 { return e.ib * e.vmax }

// Mu returns the scaling factor µ.
func (e *Estimator) Mu() float64 { return e.mu }

// CandidateU returns the value u_root would take if request i were
// fixed to the given option (a path index, or Decline) — the
// conditional expectation one level down the decision tree.
func (e *Estimator) CandidateU(i, option int) float64 {
	u := e.URoot()
	for q := e.touchOff[i]; q < e.touchEnd[i]; q++ {
		m := int(e.touched[q])
		ratio := e.decidedFactor(i, option, m) / e.undec[q]
		u += e.u[m] * (ratio - 1)
	}
	return u
}

// Decide permanently fixes request i to the given option and updates
// every affected estimator term.
func (e *Estimator) Decide(i, option int) {
	for q := e.touchOff[i]; q < e.touchEnd[i]; q++ {
		m := int(e.touched[q])
		e.u[m] *= e.decidedFactor(i, option, m) / e.undec[q]
	}
	// Once decided, the request's factors are burned into u; clear the
	// incidence so a second Decide cannot double-apply.
	e.touchEnd[i] = e.touchOff[i]
}

// decidedFactor returns request i's factor in estimator m when fixed to
// option (path index or Decline).
func (e *Estimator) decidedFactor(i, option, m int) float64 {
	if m == 0 {
		if option == Decline {
			return 1
		}
		return e.expVal[i]
	}
	if option == Decline {
		return 1
	}
	l, t := e.estLink[m], e.estSlot[m]
	r := e.inst.Request(i)
	if !r.ActiveAt(t) {
		return 1
	}
	for _, pl := range e.inst.Path(i, option).Links {
		if pl == l {
			return e.expRate[i]
		}
	}
	return 1
}
