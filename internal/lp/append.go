package lp

import (
	"fmt"
	"math"
)

// AppendColumn adds a variable together with its full constraint
// column: obj is its objective coefficient, lo and hi its bounds (lo
// finite and <= hi; hi may be math.Inf(1)), rows strictly increasing
// indices of existing constraints and vals their coefficients (exact
// zeros are dropped). It returns the column index; name is used in
// error messages only. The column goes straight into the compressed
// matrix, which keeps every earlier column in place, so a Basis
// captured before the append stays usable: the next warm solve grows
// the retained basis with the new column nonbasic at its lower bound
// (see Basis.grow) instead of falling back cold.
func (p *Problem) AppendColumn(obj, lo, hi float64, rows []int, vals []float64, name string) (int, error) {
	if math.IsInf(lo, 0) || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(hi, -1) {
		return 0, fmt.Errorf("lp: column %q: invalid bounds [%v, %v]", name, lo, hi)
	}
	if lo > hi {
		return 0, fmt.Errorf("lp: column %q: lower bound %v exceeds upper %v", name, lo, hi)
	}
	if len(rows) != len(vals) {
		return 0, fmt.Errorf("lp: column %q: %d rows but %d values", name, len(rows), len(vals))
	}
	m := len(p.rel)
	for k, r := range rows {
		if r < 0 || r >= m {
			return 0, fmt.Errorf("lp: column %q: row %d out of range", name, r)
		}
		if k > 0 && rows[k-1] >= r {
			return 0, fmt.Errorf("lp: column %q: rows must be strictly increasing (%d after %d)", name, r, rows[k-1])
		}
		if math.IsNaN(vals[k]) || math.IsInf(vals[k], 0) {
			return 0, fmt.Errorf("lp: column %q: invalid coefficient %v in row %d", name, vals[k], r)
		}
	}

	j := len(p.obj)
	p.obj = append(p.obj, obj)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	mat := &p.matrix
	for k, r := range rows {
		if vals[k] != 0 {
			mat.rows = append(mat.rows, int32(r))
			mat.vals = append(mat.vals, vals[k])
		}
	}
	mat.colPtr = append(mat.colPtr, int32(len(mat.rows)))
	return j, nil
}

// growCompatible reports whether the retained basis can absorb the
// Problem's shape growth in place: the handle must have been captured
// on p since its last Reset (append-only history), dimensions may only
// grow, and every appended row must be a ≤ constraint — those get a +1
// slack under the grow path's +1 row sign, which slots straight into
// the basis. Anything else falls back to a cold solve.
func (w *Basis) growCompatible(p *Problem, nStruct int) bool {
	if !w.Valid() || w.home != p || p.builds != w.builds || nStruct < w.nStruct || len(p.rel) < w.m {
		return false
	}
	for i := w.m; i < len(p.rel); i++ {
		if p.rel[i] != LE {
			return false
		}
	}
	return true
}

// grow rebuilds the retained working problem for a Problem that gained
// columns (AppendColumn) and/or ≤ rows (AddConstraint, which meet only
// the columns appended after them) since capture, preserving the old
// basis:
//
//   - appended structural columns enter nonbasic at lower bound;
//   - appended rows get their +1 slack basic (the new basis matrix is
//     block-diagonal diag(B_old, I), so it stays nonsingular);
//   - old rows keep their captured normalization signs, new rows are
//     +1 (their slack coefficient is +1, hence basic-eligible).
//
// The caller then proceeds exactly like a plain warm solve: rebuild
// the rhs, repair primal feasibility with dual simplex if bound/rhs
// deltas broke it, and run the primal cleanup — which also prices the
// appended columns in, since a profitable new column is exactly a
// dual-infeasible nonbasic at lower bound. Returns false on an
// internal inconsistency (the handle must then be invalidated).
func (w *Basis) grow(p *Problem, mat *csc, opts Options) bool {
	s := w.sx
	m0, nS0 := w.m, w.nStruct
	m1, nS1 := len(p.rel), len(p.obj)
	dS, dM := nS1-nS0, m1-m0
	oldArtStart, oldNArt := s.artStart, s.nArt
	oldState := append([]int(nil), s.state[:s.n]...)
	oldBasic := append([]int(nil), s.basic[:m0]...)
	oldUp := append([]float64(nil), s.up[:s.n]...)
	var oldBinv []float64
	if s.lu == nil {
		oldBinv = append([]float64(nil), s.binv[:m0*m0]...)
	}

	sign := make([]float64, m1)
	copy(sign, w.sign[:m0])
	for i := m0; i < m1; i++ {
		sign[i] = 1
	}

	s.m = m1
	s.opts = opts.withDefaults(m1, nS1)
	s.csrOK = false

	// Rebuild the working matrix under the fixed signs, exactly as the
	// cold construction lays it out.
	s.layoutColumns(p, mat, sign)
	slackBasic := s.slackNB
	if s.nArt != oldNArt {
		// Appended rows never add artificials (all LE, sign +1), so the
		// artificial block must be exactly the captured one.
		return false
	}

	// Map captured statuses onto the shifted layout: old structural
	// columns keep their index, old slacks shift by the number of new
	// structural columns, old artificials additionally by the number of
	// new slacks (one per appended row).
	slack0 := oldArtStart - nS0
	newArtStart := s.artStart
	s.state = grow(s.state, s.n, s.n)
	copy(s.state[:nS0], oldState[:nS0])
	for j := nS0; j < nS1; j++ {
		s.state[j] = atLower
	}
	for k := 0; k < slack0; k++ {
		s.state[nS1+k] = oldState[nS0+k]
		s.up[nS1+k] = oldUp[nS0+k]
	}
	for k := slack0; k < newArtStart-nS1; k++ {
		s.state[nS1+k] = isBasic
	}
	for k := 0; k < s.nArt; k++ {
		s.state[newArtStart+k] = oldState[oldArtStart+k]
		s.up[newArtStart+k] = oldUp[oldArtStart+k] // locked at 0 since phase 1
	}
	s.basic = grow(s.basic, m1, m1)
	s.xB = grow(s.xB, m1, m1)
	for i := 0; i < m0; i++ {
		j := oldBasic[i]
		switch {
		case j < nS0:
		case j < oldArtStart:
			j += dS
		default:
			j += dS + dM
		}
		s.basic[i] = j
	}
	for i := m0; i < m1; i++ {
		j := slackBasic[i]
		if j < 0 {
			return false
		}
		s.basic[i] = j
	}

	// Basis storage: re-decide the representation for the new size. On the
	// factorized path the factors are rebuilt from the basic set by
	// solveWarm; on the dense-inverse path the grown inverse is
	// diag(Binv_old, I) because appended rows meet old basic columns
	// nowhere.
	s.chooseBasis()
	if s.lu == nil {
		binv := make([]float64, m1*m1)
		for i := 0; i < m0; i++ {
			copy(binv[i*m1:i*m1+m0], oldBinv[i*m0:(i+1)*m0])
		}
		for i := m0; i < m1; i++ {
			binv[i*m1+i] = 1
		}
		s.binv = binv
	}

	// Size-dependent scratch is reallocated lazily, like a cloned handle.
	s.y, s.w, s.nz, s.rho, s.wNZ = nil, nil, nil, nil, nil
	s.cB, s.cbNZ, s.yNZp, s.rhoNZp = nil, nil, nil, nil
	s.yDense = false
	s.alpha, s.alphaNZ, s.movable = nil, nil, nil
	s.alphaStamp = 0
	s.b = grow(s.b, m1, m1)

	w.m, w.nStruct, w.sign = m1, nS1, sign
	return true
}
