package lp

// ensureCSR builds the row-major (CSR) mirror of the working matrix.
// The dual ratio test needs the pivot row α_r = ρ·A restricted to
// nonbasic columns, and gathering it row-wise over ρ's nonzero pattern
// is the sparse way to get it; the CSC arrays would force a full
// column sweep per pivot. The matrix is immutable for the lifetime of
// a working problem (bounds and costs change between warm solves, the
// coefficients never do), so the mirror is built once per cold solve
// and shared by clones.
func (s *simplex) ensureCSR() {
	if s.csrOK {
		return
	}
	m, n := s.m, s.n
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

// gatherPivotRow computes the pivot row α = ρ·A restricted to movable
// nonbasic columns, accumulated sparsely over the CSR mirror with stamp
// dedup (a column can appear under several rows of ρ's pattern). The
// values land in s.alpha and both they and the returned pattern stay
// valid until the next call; no clearing is needed between calls — the
// stamp invalidates stale entries. rhoNZ == nil means ρ is dense and
// every row is swept. Used by the factorized dual ratio test (a
// cold-start dual repair runs thousands of pivots, and sweeping every
// candidate column per pivot is the difference between O(nnz) and
// O(nnz(ρ-rows)) each).
func (s *simplex) gatherPivotRow(rho []float64, rhoNZ []int32) []int32 {
	s.ensureCSR()
	if len(s.alphaMark) != s.n {
		s.alpha = grow(s.alpha, s.n, s.n)
		clear(s.alpha)
		s.alphaNZ = grow(s.alphaNZ, 0, s.n)
		s.alphaMark = grow(s.alphaMark, s.n, s.n)
		clear(s.alphaMark)
		s.alphaStamp = 0
	}
	s.alphaStamp++
	stamp := s.alphaStamp
	state, up := s.state, s.up
	alpha, mark := s.alpha, s.alphaMark
	nz := s.alphaNZ[:0]
	rowPtr, colInd, rVals := s.rowPtr, s.colInd, s.rVals
	sweep := func(i int, rv float64) {
		lo, hi := rowPtr[i], rowPtr[i+1]
		vals := rVals[lo:hi]
		for k, j := range colInd[lo:hi] {
			if state[j] == isBasic || up[j] == 0 {
				continue
			}
			if mark[j] != stamp {
				mark[j] = stamp
				alpha[j] = 0
				nz = append(nz, j)
			}
			alpha[j] += rv * vals[k]
		}
	}
	if rhoNZ != nil {
		for _, i32 := range rhoNZ {
			if rv := rho[i32]; rv != 0 {
				sweep(int(i32), rv)
			}
		}
	} else {
		for i := 0; i < s.m; i++ {
			if rv := rho[i]; rv != 0 {
				sweep(i, rv)
			}
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
