package lp

// ensureCSR builds the row-major (CSR) mirror of the working matrix's
// structural and slack columns. The dual ratio test needs the pivot
// row α_r = ρ·A restricted to movable nonbasic columns, and gathering
// it row-wise over ρ's nonzero pattern is the sparse way to get it;
// the CSC arrays would force a full column sweep per pivot. The
// artificial columns are left out: every dual repair runs with them
// locked at 0 (the dual cold start locks them before its repair, and a
// captured basis was locked by its cold solve), so none can enter. The
// matrix is immutable for the lifetime of a working problem (bounds
// and costs change between warm solves, the coefficients never do), so
// the mirror is built once per cold solve and shared by clones.
func (s *simplex) ensureCSR() {
	if s.csrOK {
		return
	}
	m, n := s.m, s.artStart
	nnz := int(s.colPtr[n])
	s.rowPtr = grow(s.rowPtr, m+1, m+1)
	rowPtr := s.rowPtr
	clear(rowPtr)
	for _, r := range s.rowIdx[:nnz] {
		rowPtr[r+1]++
	}
	for i := 0; i < m; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	s.colInd = grow(s.colInd, nnz, nnz)
	s.rVals = grow(s.rVals, nnz, nnz)
	// Scatter with rowPtr as running cursors; columns are visited in
	// ascending order, so each row's entries land column-sorted.
	for j := 0; j < n; j++ {
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			r := s.rowIdx[q]
			pos := rowPtr[r]
			s.colInd[pos] = int32(j)
			s.rVals[pos] = s.vals[q]
			rowPtr[r] = pos + 1
		}
	}
	// rowPtr[i] now holds end(i) == start(i+1); shift down one slot.
	copy(rowPtr[1:m+1], rowPtr[:m])
	rowPtr[0] = 0
	s.csrOK = true
}

// alphaEntry is one column's slot in the pivot-row accumulator: its α
// and the gather that last wrote it. The gather reads and writes both
// in one place.
type alphaEntry struct {
	v     float64
	stamp int32
}

// startPivotRows readies the pivot-row gather for a dual repair: the
// CSR mirror, an accumulator slot per mirrored column (grown into the
// arrays of the last repair, cleared only when the layout changed),
// and the movable flags, one byte per column: nonbasic with a nonzero
// upper bound. A repair's pivots keep the flags with pivotMovable.
func (s *simplex) startPivotRows() {
	s.ensureCSR()
	n := s.artStart
	if len(s.alpha) != n {
		s.alpha = grow(s.alpha, n, n)
		clear(s.alpha)
		s.alphaNZ = grow(s.alphaNZ, 0, n)
		s.alphaStamp = 0
	}
	s.movable = grow(s.movable, n, n)
	for j := range s.movable {
		s.movable[j] = s.state[j] != isBasic && s.up[j] != 0
	}
}

// pivotMovable updates the movable flags for a pivot in which enter
// became basic and exit left the basis for one of its bounds. (An
// exiting artificial is not mirrored, and stays locked at 0.)
func (s *simplex) pivotMovable(enter, exit int) {
	s.movable[enter] = false
	if exit < len(s.movable) {
		s.movable[exit] = s.up[exit] != 0
	}
}

// gatherPivotRow computes the pivot row α = ρ·A restricted to movable
// nonbasic columns, accumulated sparsely over the CSR mirror with stamp
// dedup (a column can appear under several rows of ρ's pattern); rows
// are taken in rhoNZ's order and each row's entries in column order.
// It returns the touched columns in first-touch order; s.alpha[j].v is
// column j's α, and both stay valid until the next call, which needs
// no clearing: the stamp invalidates stale entries. Used by the
// factorized dual ratio test (a cold-start dual repair runs thousands
// of pivots, and sweeping every candidate column per pivot is the
// difference between O(nnz) and O(nnz(ρ-rows)) each).
func (s *simplex) gatherPivotRow(rho []float64, rhoNZ []int32) []int32 {
	s.alphaStamp++
	stamp := s.alphaStamp
	acc, movable := s.alpha, s.movable
	nz := s.alphaNZ[:0]
	rowPtr, colInd, rVals := s.rowPtr, s.colInd, s.rVals
	for _, i := range rhoNZ {
		rv := rho[i]
		if rv == 0 {
			continue
		}
		lo, hi := rowPtr[i], rowPtr[i+1]
		vals := rVals[lo:hi]
		for k, j := range colInd[lo:hi] {
			if !movable[j] {
				continue
			}
			a := &acc[j]
			if a.stamp != stamp {
				a.stamp = stamp
				a.v = 0
				nz = append(nz, j)
			}
			a.v += rv * vals[k]
		}
	}
	s.alphaNZ = nz
	return nz
}

// computeDualsFull is dualIterate's duals refresh on the factorized
// basis: one dense BTRAN of the full basic cost vector, leaving y valid
// (and dense) everywhere so the per-pivot incremental updates can write
// any position. Used at repair start and after refactorizations.
func (s *simplex) computeDualsFull(cost, y []float64) {
	c := s.lu.posBuf
	clear(c)
	for i, j := range s.basic {
		c[i] = cost[j]
	}
	s.lu.btran(c, y)
	s.yDense = true
	s.yNZp = s.yNZp[:0]
}
