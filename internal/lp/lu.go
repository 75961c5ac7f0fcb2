package lp

import (
	"math"
	"slices"
)

// luBasis is an LU-factorized representation of the simplex basis
// matrix B, replacing the dense m×m basis inverse for large problems.
//
// factor computes a sparse triangular decomposition P·B·Q = L·U with a
// left-looking (Gilbert–Peierls) elimination: columns are processed in
// a Markowitz-style static order (ascending nonzero count, so slack and
// artificial singletons pivot first and generate no fill) and each
// column's update pattern is discovered by a reachability DFS over the
// partial L, making the factorization O(flops) rather than O(m²).
// Pivot rows are chosen by threshold partial pivoting: among candidates
// within luPivotThreshold of the column's largest magnitude, the row
// with the lowest basis-matrix row count wins (the Markowitz tie-break
// that steers fill down without giving up stability).
//
// Per-iteration systems are solved against the factors: FTRAN
// (w = B⁻¹·a) runs a column-oriented forward solve with L then a
// backward solve with U; BTRAN (yᵀ·B = cᵀ) runs the transposed solves
// in the opposite order. Both skip structurally zero positions, so a
// sparse right-hand side costs O(nnz touched), not O(m²).
//
// Each basis change is absorbed as a rank-1 product-form update (the
// eta form of the Forrest–Tomlin family): B_new = B·E with E the
// identity except column p := the FTRAN direction w, so
// FTRAN applies E⁻¹ after the factor solve and BTRAN applies E⁻ᵀ
// before it — O(nnz(w)) each. Updates are refused — forcing a
// refactorization — when the eta pivot is unstable relative to ‖w‖∞,
// when too many etas have stacked up, or when accumulated eta fill
// exceeds a multiple of the factor size (fresh factors are then cheaper
// than dragging the eta file through every solve).
type luBasis struct {
	ok bool
	m  int

	// Elimination-order maps: step k pivoted original row rowOf[k] and
	// basis position colOrder[k]; pinv inverts rowOf.
	rowOf    []int32
	pinv     []int32
	colOrder []int32

	// L is unit lower triangular over elimination steps; column k holds
	// the multipliers of rows not yet pivoted at step k, indexed by
	// ORIGINAL row (the unit diagonal is implicit). U is upper
	// triangular; column k's off-diagonal entries are indexed by STEP.
	lPtr  []int32
	lRows []int32
	lVals []float64
	uPtr  []int32
	uRows []int32
	uVals []float64
	uDiag []float64

	// Product-form eta file: eta e spans
	// etaPos/etaVals[etaPtr[e]:etaPtr[e+1]], pivot entry first. Positions
	// index the basis (= rows of the direction vector w).
	etaPtr  []int32
	etaPos  []int32
	etaVals []float64
	// etaMask[p] has bit e set when eta e touches basis position p
	// (luMaxEtas fits one word); btranSparse skips the etas its
	// right-hand side cannot reach.
	etaMask []uint64

	// Patterns rebuilt with the factors for the sparse solves' dfs
	// walks. lSteps is lRows mapped through pinv: L column k's
	// successors as steps, the L graph of ftranSparse. posStep inverts
	// colOrder. The reverse (row-wise) patterns drive btranSparse, which
	// walks dependencies opposite to the stored CSC factors:
	// utCols[utPtr[t]:utPtr[t+1]] lists the steps k > t whose U column
	// contains t, and ltCols likewise lists the steps k < t whose L
	// column contains row rowOf[t].
	lSteps  []int32
	posStep []int32
	utPtr   []int32
	utCols  []int32
	ltPtr   []int32
	ltCols  []int32

	// Scratch reused across factors and solves.
	work    []float64 // step-space solve scratch
	colBuf  []float64 // row-space gather buffer (zeroed between uses)
	posBuf  []float64 // position-space gather buffer
	stack   []int32   // DFS stack (capacity ≥ m, set by factor)
	pstack  []int32   // dfs successor cursors (parallel to stack)
	reach   []int32   // steps reached in L: factor's column, ftranSparse's b
	reachU  []int32   // steps reached in U by ftranSparse, postorder
	rowMark []int32   // per-row visit stamp of the current column
	stepMk  []int32   // per-step DFS stamp
	posMk   []int32   // per-position stamp (sparse FTRAN nonzero dedup)
	stamp   int32
	touched []int32 // rows touched by the current column's numeric pass
	rowCnt  []int32 // basis-matrix row counts (Markowitz tie-break)
	order   []int32 // column-ordering scratch
	xNZ     []int32 // nonzero positions of the last sparse FTRAN

	// Sparse-BTRAN scratch. workB carries the Uᵀ solve and is all-zero
	// between calls (btranSparse restores the zeros it writes); reachB
	// and reachC hold the steps dfs reached in Uᵀ / Lᵀ, in postorder.
	workB  []float64
	reachB []int32
	reachC []int32
}

// nextStamp advances the shared visit stamp, resetting every stamp
// array on the (rare) wraparound so stale marks can never collide.
func (lu *luBasis) nextStamp() int32 {
	if lu.stamp == math.MaxInt32 {
		clear(lu.rowMark)
		clear(lu.stepMk)
		clear(lu.posMk)
		lu.stamp = 0
	}
	lu.stamp++
	return lu.stamp
}

// Factorization and update tuning. The thresholds trade stability
// against fill: higher luPivotThreshold means more numerically cautious
// pivots (and possibly more fill); the eta limits bound how far the
// factor may drift from fresh before a refactorization is forced.
const (
	// luPivotThreshold is the threshold-pivoting relaxation u: any row
	// within u·max|column| is an acceptable pivot, and the sparsest wins.
	luPivotThreshold = 0.1
	// luZeroTol is the absolute magnitude below which a would-be pivot
	// is treated as zero (the column is declared singular).
	luZeroTol = 1e-11
	// luEtaStabTol rejects an eta whose pivot is smaller than this
	// fraction of the direction's largest entry.
	luEtaStabTol = 1e-8
	// luMaxEtas caps the eta file length between refactorizations.
	luMaxEtas = 64
	// luFillFactor·nnz(LU) + luFillSlack·m bounds the eta file's total
	// nonzeros before a refactorization is forced.
	luFillFactor = 2
	luFillSlack  = 8
)

// etaOutcome classifies an appendEta attempt.
type etaOutcome int

const (
	etaOK etaOutcome = iota
	etaUnstable
	etaFill
)

// nnz returns the size of the factors (L + U + diagonal).
func (lu *luBasis) nnz() int {
	return len(lu.lVals) + len(lu.uVals) + lu.m
}

// factor builds the decomposition for the basis matrix whose column i
// is working-matrix column basic[i] (CSC arrays colPtr/rowIdx/vals).
// It returns false iff the basis is numerically singular; lu.ok mirrors
// the result. Any eta file from a previous factor is discarded.
func (lu *luBasis) factor(m int, colPtr, rowIdx []int32, vals []float64, basic []int) bool {
	lu.m = m
	lu.ok = false
	lu.etaPtr = append(lu.etaPtr[:0], 0)
	lu.etaPos = lu.etaPos[:0]
	lu.etaVals = lu.etaVals[:0]
	lu.etaMask = slices.Grow(lu.etaMask[:0], m)[:m]
	clear(lu.etaMask)

	lu.rowOf = grow(lu.rowOf, m, m)
	lu.pinv = grow(lu.pinv, m, m)
	lu.colOrder = grow(lu.colOrder, m, m)
	lu.uDiag = grow(lu.uDiag, m, m)
	lu.work = grow(lu.work, m, m)
	lu.posBuf = grow(lu.posBuf, m, m)
	lu.rowMark = grow(lu.rowMark, m, m)
	lu.stepMk = grow(lu.stepMk, m, m)
	lu.posMk = grow(lu.posMk, m, m)
	lu.rowCnt = grow(lu.rowCnt, m, m)
	lu.stack = grow(lu.stack, m, m)
	lu.pstack = grow(lu.pstack, m, m)
	lu.colBuf = grow(lu.colBuf, m, m)
	clear(lu.colBuf)
	lu.lPtr = append(lu.lPtr[:0], 0)
	lu.lRows = lu.lRows[:0]
	lu.lVals = lu.lVals[:0]
	lu.uPtr = append(lu.uPtr[:0], 0)
	lu.uRows = lu.uRows[:0]
	lu.uVals = lu.uVals[:0]

	// Static Markowitz-style column order: ascending nonzero count via a
	// counting sort (ties keep ascending basis position, so the order —
	// and with it the whole factorization — is deterministic).
	clear(lu.rowCnt)
	maxNNZ := 0
	for _, j := range basic {
		n := int(colPtr[j+1] - colPtr[j])
		if n > maxNNZ {
			maxNNZ = n
		}
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			lu.rowCnt[rowIdx[q]]++
		}
	}
	bucket := grow(lu.order, maxNNZ+2, maxNNZ+2)
	lu.order = bucket
	clear(bucket)
	for _, j := range basic {
		bucket[colPtr[j+1]-colPtr[j]+1]++
	}
	for n := 1; n < len(bucket); n++ {
		bucket[n] += bucket[n-1]
	}
	for i, j := range basic {
		n := colPtr[j+1] - colPtr[j]
		lu.colOrder[bucket[n]] = int32(i)
		bucket[n]++
	}

	for i := range lu.pinv {
		lu.pinv[i] = -1
	}

	w := lu.colBuf // dense by original row; cleared per column below
	for k := 0; k < m; k++ {
		pos := lu.colOrder[k]
		j := basic[pos]
		stamp := lu.nextStamp()
		lu.reach = lu.reach[:0]
		lu.touched = lu.touched[:0]

		// Scatter the column and seed the reachability DFS from its
		// already-pivoted rows.
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			r := rowIdx[q]
			w[r] = vals[q]
			lu.rowMark[r] = stamp
			lu.touched = append(lu.touched, r)
			if s := lu.pinv[r]; s >= 0 && lu.stepMk[s] != stamp {
				lu.dfsReach(s, stamp)
			}
		}
		// Elimination dependencies only point from smaller steps to
		// larger ones, so ascending step order is a topological order.
		slices.Sort(lu.reach)

		for _, s := range lu.reach {
			zk := w[lu.rowOf[s]]
			if zk == 0 {
				continue
			}
			for idx := lu.lPtr[s]; idx < lu.lPtr[s+1]; idx++ {
				r := lu.lRows[idx]
				if lu.rowMark[r] != stamp {
					lu.rowMark[r] = stamp
					lu.touched = append(lu.touched, r)
					w[r] = 0
				}
				w[r] -= lu.lVals[idx] * zk
			}
		}

		// Threshold pivot selection over the unpivoted rows.
		maxAbs := 0.0
		for _, r := range lu.touched {
			if lu.pinv[r] < 0 {
				if a := math.Abs(w[r]); a > maxAbs {
					maxAbs = a
				}
			}
		}
		if maxAbs <= luZeroTol {
			for _, r := range lu.touched {
				w[r] = 0
			}
			return false
		}
		limit := luPivotThreshold * maxAbs
		best := int32(-1)
		var bestCnt int32
		for _, r := range lu.touched {
			if lu.pinv[r] >= 0 || math.Abs(w[r]) < limit {
				continue
			}
			if best == -1 || lu.rowCnt[r] < bestCnt || (lu.rowCnt[r] == bestCnt && r < best) {
				best, bestCnt = r, lu.rowCnt[r]
			}
		}
		piv := w[best]

		// Emit U column k (pivoted steps) and L column k (remaining
		// unpivoted rows, scaled by the pivot).
		for _, s := range lu.reach {
			if v := w[lu.rowOf[s]]; v != 0 {
				lu.uRows = append(lu.uRows, s)
				lu.uVals = append(lu.uVals, v)
			}
		}
		lu.uPtr = append(lu.uPtr, int32(len(lu.uRows)))
		lu.uDiag[k] = piv
		inv := 1 / piv
		for _, r := range lu.touched {
			if lu.pinv[r] >= 0 || r == best {
				continue
			}
			if v := w[r]; v != 0 {
				lu.lRows = append(lu.lRows, r)
				lu.lVals = append(lu.lVals, v*inv)
			}
		}
		lu.lPtr = append(lu.lPtr, int32(len(lu.lRows)))
		lu.pinv[best] = int32(k)
		lu.rowOf[k] = best

		for _, r := range lu.touched {
			w[r] = 0
		}
	}
	lu.buildReverse()
	lu.ok = true
	return true
}

// buildReverse derives the step-space and row-wise reachability
// patterns (posStep, lSteps, utPtr/utCols, ltPtr/ltCols) from the
// freshly built factors: one counting pass and one fill pass over each
// factor, O(nnz(L)+nnz(U)+m).
func (lu *luBasis) buildReverse() {
	m := lu.m
	lu.posStep = grow(lu.posStep, m, m)
	for k := 0; k < m; k++ {
		lu.posStep[lu.colOrder[k]] = int32(k)
	}
	lu.workB = grow(lu.workB, m, m)
	clear(lu.workB) // establish the all-zero invariant btranSparse keeps

	lu.utPtr = grow(lu.utPtr, m+1, m+1)
	clear(lu.utPtr)
	for _, t := range lu.uRows {
		lu.utPtr[t+1]++
	}
	for t := 0; t < m; t++ {
		lu.utPtr[t+1] += lu.utPtr[t]
	}
	lu.utCols = grow(lu.utCols, len(lu.uRows), len(lu.uRows))
	fill := append(lu.order[:0], lu.utPtr[:m]...)
	for k := 0; k < m; k++ {
		for idx := lu.uPtr[k]; idx < lu.uPtr[k+1]; idx++ {
			t := lu.uRows[idx]
			lu.utCols[fill[t]] = int32(k)
			fill[t]++
		}
	}

	lu.ltPtr = grow(lu.ltPtr, m+1, m+1)
	clear(lu.ltPtr)
	for _, r := range lu.lRows {
		lu.ltPtr[lu.pinv[r]+1]++
	}
	for t := 0; t < m; t++ {
		lu.ltPtr[t+1] += lu.ltPtr[t]
	}
	lu.ltCols = grow(lu.ltCols, len(lu.lRows), len(lu.lRows))
	lu.lSteps = grow(lu.lSteps, len(lu.lRows), len(lu.lRows))
	fill = append(lu.order[:0], lu.ltPtr[:m]...)
	for k := 0; k < m; k++ {
		for idx := lu.lPtr[k]; idx < lu.lPtr[k+1]; idx++ {
			t := lu.pinv[lu.lRows[idx]]
			lu.lSteps[idx] = t
			lu.ltCols[fill[t]] = int32(k)
			fill[t]++
		}
	}
	lu.order = fill[:0]
}

// dfsReach collects every step reachable from start through L's
// elimination graph (an edge s→t exists when L column s updates a row
// pivoted at step t) into lu.reach, marking visits with stamp.
func (lu *luBasis) dfsReach(start int32, stamp int32) {
	lu.stack = append(lu.stack[:0], start)
	lu.stepMk[start] = stamp
	for len(lu.stack) > 0 {
		s := lu.stack[len(lu.stack)-1]
		lu.stack = lu.stack[:len(lu.stack)-1]
		lu.reach = append(lu.reach, s)
		for idx := lu.lPtr[s]; idx < lu.lPtr[s+1]; idx++ {
			if t := lu.pinv[lu.lRows[idx]]; t >= 0 && lu.stepMk[t] != stamp {
				lu.stepMk[t] = stamp
				lu.stack = append(lu.stack, t)
			}
		}
	}
}

// dfs appends to out every step reachable from start through the graph
// whose step s has successors adj[ptr[s]:ptr[s+1]], skipping and
// marking steps through lu.stepMk and stamp, and returns out. The walk
// is POSTORDER: a step is appended only after all its successors, so
// the reverse of the append order is a topological order and the
// solves need no sort (Gilbert–Peierls; the design of CSparse's
// cs_dfs). It is iterative: stack[:head+1] is the current path and
// pstack[i] the next successor of stack[i] to scan; a walk pushes a
// step at most once, so both fit in m entries. The four solve graphs
// are L (lPtr/lSteps), U (uPtr/uRows), Uᵀ (utPtr/utCols) and Lᵀ
// (ltPtr/ltCols), all in step space, so callers need a complete
// factorization.
func (lu *luBasis) dfs(ptr, adj []int32, start, stamp int32, out []int32) []int32 {
	mk := lu.stepMk
	mk[start] = stamp
	if ptr[start] == ptr[start+1] {
		return append(out, start) // a hypersparse solve's common case
	}
	stack, pstack := lu.stack[:lu.m], lu.pstack[:lu.m]
	stack[0], pstack[0] = start, ptr[start]
	for head := 0; head >= 0; {
		s := stack[head]
		idx, end := pstack[head], ptr[s+1]
		for idx < end && mk[adj[idx]] == stamp {
			idx++
		}
		if idx == end {
			out = append(out, s)
			head--
			continue
		}
		t := adj[idx]
		pstack[head] = idx + 1
		mk[t] = stamp
		head++
		stack[head], pstack[head] = t, ptr[t]
	}
	return out
}

// ftran solves B·x = b. b is indexed by original row and is DESTROYED
// (it doubles as the forward-solve workspace); x is indexed by basis
// position and fully overwritten. b and x must both have length m and
// must not alias.
func (lu *luBasis) ftran(b, x []float64) {
	m := lu.m
	// Forward solve L·z = P·b, column-oriented: position rowOf[k] holds
	// z[k] once steps < k have been applied, and no later column writes
	// it again.
	for k := 0; k < m; k++ {
		zk := b[lu.rowOf[k]]
		if zk == 0 {
			continue
		}
		for idx := lu.lPtr[k]; idx < lu.lPtr[k+1]; idx++ {
			b[lu.lRows[idx]] -= lu.lVals[idx] * zk
		}
	}
	// Backward solve U·x̂ = z in step space.
	w := lu.work
	for k := 0; k < m; k++ {
		w[k] = b[lu.rowOf[k]]
	}
	for k := m - 1; k >= 0; k-- {
		v := w[k]
		if v == 0 {
			x[lu.colOrder[k]] = 0
			continue
		}
		v /= lu.uDiag[k]
		x[lu.colOrder[k]] = v
		for idx := lu.uPtr[k]; idx < lu.uPtr[k+1]; idx++ {
			w[lu.uRows[idx]] -= lu.uVals[idx] * v
		}
	}
	// Product-form updates, oldest first: x ← E⁻¹·x.
	lu.applyEtasFwd(x)
}

// ftranSparse solves B·x = b for a sparse right-hand side given as a
// row/value list (an untouched CSC column slice). It exploits
// hypersparsity end to end: the triangular solves visit only the steps
// reachable from b's pattern through the elimination graphs, and the
// eta file only extends the pattern it actually fills in.
//
// x must be all-zero on entry at every position outside the list
// returned by the PREVIOUS ftranSparse call (the caller clears those);
// on return x is B⁻¹·b and the returned list holds every position where
// x may be nonzero (it may include exact zeros from cancellation, never
// duplicates). The list aliases lu.xNZ and is valid until the next call.
func (lu *luBasis) ftranSparse(rows []int32, vals []float64, x []float64) []int32 {
	b := lu.colBuf // borrowed; restored to all-zero before returning

	// Reachable steps of L's elimination graph from the pattern of b:
	// exactly the steps whose forward-solve value can be nonzero. The
	// postorder DFS appends a step only after all its successors, so
	// REVERSE append order is topological (small steps before large) —
	// no sort needed (Gilbert–Peierls).
	stamp := lu.nextStamp()
	reach := lu.reach[:0]
	for _, r := range rows {
		if s := lu.pinv[r]; lu.stepMk[s] != stamp {
			reach = lu.dfs(lu.lPtr, lu.lSteps, s, stamp, reach)
		}
	}
	lu.reach = reach

	// Forward solve L·z = P·b over the reached steps only. Every row an
	// L column can touch belongs to a reached step, so pre-zeroing the
	// reached rows makes the scatter-subtract below safe.
	for _, k := range reach {
		b[lu.rowOf[k]] = 0
	}
	for i, r := range rows {
		b[r] = vals[i]
	}
	lPtr, lRows, lVals := lu.lPtr, lu.lRows, lu.lVals
	for i := len(reach) - 1; i >= 0; i-- {
		k := reach[i]
		zk := b[lu.rowOf[k]]
		if zk == 0 {
			continue
		}
		lo, hi := lPtr[k], lPtr[k+1]
		vals := lVals[lo:hi]
		for q, r := range lRows[lo:hi] {
			b[r] -= vals[q] * zk
		}
	}

	// Reachable steps of U's graph from z's nonzeros: the candidate
	// nonzero pattern of the backward solve. Same postorder trick;
	// reverse append order processes larger steps first.
	stamp = lu.nextStamp()
	reachU := lu.reachU[:0]
	for _, k := range reach {
		if b[lu.rowOf[k]] != 0 && lu.stepMk[k] != stamp {
			reachU = lu.dfs(lu.uPtr, lu.uRows, k, stamp, reachU)
		}
	}
	lu.reachU = reachU

	// Backward solve U·x̂ = z over the reached steps, scattering results
	// straight into position space and recording the pattern.
	w := lu.work
	for _, k := range reachU {
		w[k] = 0
	}
	for _, k := range reach {
		w[k] = b[lu.rowOf[k]]
		b[lu.rowOf[k]] = 0 // restore colBuf's all-zero invariant
	}
	xStamp := lu.nextStamp()
	xNZ := lu.xNZ[:0]
	uPtr, uRows, uVals := lu.uPtr, lu.uRows, lu.uVals
	for i := len(reachU) - 1; i >= 0; i-- {
		k := reachU[i]
		v := w[k]
		if v == 0 {
			continue
		}
		v /= lu.uDiag[k]
		lo, hi := uPtr[k], uPtr[k+1]
		vals := uVals[lo:hi]
		for q, r := range uRows[lo:hi] {
			w[r] -= vals[q] * v
		}
		pos := lu.colOrder[k]
		x[pos] = v
		lu.posMk[pos] = xStamp
		xNZ = append(xNZ, pos)
	}

	// Product-form updates, oldest first, extending the pattern as etas
	// fill in new positions.
	for e := 0; e+1 < len(lu.etaPtr); e++ {
		start, end := lu.etaPtr[e], lu.etaPtr[e+1]
		p := lu.etaPos[start]
		xp := x[p]
		if xp == 0 {
			continue
		}
		xp /= lu.etaVals[start]
		x[p] = xp
		for idx := start + 1; idx < end; idx++ {
			pos := lu.etaPos[idx]
			x[pos] -= lu.etaVals[idx] * xp
			if lu.posMk[pos] != xStamp {
				lu.posMk[pos] = xStamp
				xNZ = append(xNZ, pos)
			}
		}
	}
	// The pattern is NOT sorted: it follows the deterministic DFS/eta
	// discovery order, which every consumer (ratio test, basic-value
	// update, eta append) tolerates, and sorting it would cost more than
	// any of them saves.
	lu.xNZ = xNZ
	return xNZ
}

// applyEtasFwd applies every recorded eta inverse to x (position space).
func (lu *luBasis) applyEtasFwd(x []float64) {
	for e := 0; e+1 < len(lu.etaPtr); e++ {
		start, end := lu.etaPtr[e], lu.etaPtr[e+1]
		p := lu.etaPos[start]
		xp := x[p]
		if xp == 0 {
			continue
		}
		xp /= lu.etaVals[start]
		x[p] = xp
		for idx := start + 1; idx < end; idx++ {
			x[lu.etaPos[idx]] -= lu.etaVals[idx] * xp
		}
	}
}

// btran solves Bᵀ·y = c. c is indexed by basis position and is
// DESTROYED; y is indexed by original row and fully overwritten. c and
// y must both have length m and must not alias.
func (lu *luBasis) btran(c, y []float64) {
	m := lu.m
	// Eta transposes first, newest first: c ← E⁻ᵀ·c.
	for e := len(lu.etaPtr) - 2; e >= 0; e-- {
		start, end := lu.etaPtr[e], lu.etaPtr[e+1]
		p := lu.etaPos[start]
		acc := c[p]
		for idx := start + 1; idx < end; idx++ {
			acc -= lu.etaVals[idx] * c[lu.etaPos[idx]]
		}
		c[p] = acc / lu.etaVals[start]
	}
	// Forward solve Uᵀ·z = ĉ in step space (Uᵀ is lower triangular).
	w := lu.work
	for k := 0; k < m; k++ {
		acc := c[lu.colOrder[k]]
		for idx := lu.uPtr[k]; idx < lu.uPtr[k+1]; idx++ {
			acc -= lu.uVals[idx] * w[lu.uRows[idx]]
		}
		w[k] = acc / lu.uDiag[k]
	}
	// Backward solve Lᵀ·ŷ = z; scatter through the row permutation.
	for k := m - 1; k >= 0; k-- {
		acc := w[k]
		for idx := lu.lPtr[k]; idx < lu.lPtr[k+1]; idx++ {
			acc -= lu.lVals[idx] * y[lu.lRows[idx]]
		}
		y[lu.rowOf[k]] = acc
	}
}

// btranSparse solves Bᵀ·y = c for a sparse c, exploiting hypersparsity
// the way ftranSparse does: only the steps reachable from c's pattern
// through the transposed factor graphs are visited.
//
// c is a position-space buffer that is all-zero outside the cNZ
// pattern; the eta phase mutates it in place and may extend the
// pattern, and the returned cNZ2 (an extension of cNZ's backing) lists
// every position the caller must re-zero to restore the buffer. y is
// the output, which must be all-zero outside yPrev — the pattern this
// call's predecessor returned for the same buffer; btranSparse clears
// it first and returns the new pattern as yNZ, reusing yPrev's backing
// (so each output buffer keeps its own pattern storage and concurrent
// patterns for different buffers never alias).
func (lu *luBasis) btranSparse(c []float64, cNZ []int32, y []float64, yPrev []int32) (cNZ2, yNZ []int32) {
	for _, r := range yPrev {
		y[r] = 0
	}

	// Eta transposes, newest first: c ← E⁻ᵀ·c. active holds the etas
	// that touch a position c may be nonzero at; any other eta reads
	// only zeros, so its accumulation is skipped. Every pivot position
	// still joins the pattern in eta order, which keeps the discovery
	// order — and so the downstream accumulation order — of the full
	// pass.
	stamp := lu.nextStamp()
	var active uint64
	for _, p := range cNZ {
		lu.posMk[p] = stamp
		active |= lu.etaMask[p]
	}
	for e := len(lu.etaPtr) - 2; e >= 0; e-- {
		start, end := lu.etaPtr[e], lu.etaPtr[e+1]
		p := lu.etaPos[start]
		if active&(1<<e) != 0 {
			acc := c[p]
			for idx := start + 1; idx < end; idx++ {
				acc -= lu.etaVals[idx] * c[lu.etaPos[idx]]
			}
			c[p] = acc / lu.etaVals[start]
			active |= lu.etaMask[p]
		} else {
			c[p] /= lu.etaVals[start]
		}
		if lu.posMk[p] != stamp {
			lu.posMk[p] = stamp
			cNZ = append(cNZ, p)
		}
	}

	// Reachable steps of the transposed-U graph from ĉ's pattern: the
	// candidate nonzero pattern of the forward solve Uᵀ·z = ĉ. Reverse
	// postorder order processes smaller steps first.
	stamp = lu.nextStamp()
	reachB := lu.reachB[:0]
	for _, p := range cNZ {
		if c[p] != 0 {
			if k := lu.posStep[p]; lu.stepMk[k] != stamp {
				reachB = lu.dfs(lu.utPtr, lu.utCols, k, stamp, reachB)
			}
		}
	}
	lu.reachB = reachB
	wb := lu.workB
	uPtr, uRows, uVals := lu.uPtr, lu.uRows, lu.uVals
	for i := len(reachB) - 1; i >= 0; i-- {
		k := reachB[i]
		acc := c[lu.colOrder[k]]
		lo, hi := uPtr[k], uPtr[k+1]
		vals := uVals[lo:hi]
		for q, r := range uRows[lo:hi] {
			acc -= vals[q] * wb[r]
		}
		wb[k] = acc / lu.uDiag[k]
	}

	// Reachable steps of the transposed-L graph from z's pattern, then
	// the backward solve Lᵀ·ŷ = z scattered through the row permutation.
	// Reverse postorder processes larger steps first, and zs are wiped
	// as the solve consumes them, restoring workB's all-zero invariant.
	stamp = lu.nextStamp()
	reachC := lu.reachC[:0]
	for _, k := range reachB {
		if lu.stepMk[k] != stamp {
			reachC = lu.dfs(lu.ltPtr, lu.ltCols, k, stamp, reachC)
		}
	}
	lu.reachC = reachC
	yNZ = yPrev[:0]
	lPtr, lRows, lVals := lu.lPtr, lu.lRows, lu.lVals
	for i := len(reachC) - 1; i >= 0; i-- {
		k := reachC[i]
		acc := wb[k]
		wb[k] = 0
		lo, hi := lPtr[k], lPtr[k+1]
		vals := lVals[lo:hi]
		for q, r := range lRows[lo:hi] {
			acc -= vals[q] * y[r]
		}
		r := lu.rowOf[k]
		y[r] = acc
		yNZ = append(yNZ, r)
	}
	return cNZ, yNZ
}

// appendEta records the product-form update for a pivot that replaces
// the column at basis position p, given the FTRAN direction
// w = B⁻¹·a_enter and its nonzero pattern wNZ. etaUnstable / etaFill
// mean the update was refused and the caller must refactorize (the
// factors are untouched and still describe the pre-pivot basis).
func (lu *luBasis) appendEta(p int, w []float64, wNZ []int32) etaOutcome {
	piv := w[p]
	nz := 0
	maxAbs := 0.0
	for _, i := range wNZ {
		if v := w[i]; v != 0 {
			nz++
			maxAbs = max(maxAbs, math.Abs(v))
		}
	}
	if math.Abs(piv) < luEtaStabTol*maxAbs {
		return etaUnstable
	}
	if len(lu.etaPtr)-1 >= luMaxEtas ||
		len(lu.etaPos)+nz > luFillFactor*lu.nnz()+luFillSlack*lu.m {
		return etaFill
	}
	bit := uint64(1) << (len(lu.etaPtr) - 1)
	lu.etaPos = append(lu.etaPos, int32(p))
	lu.etaVals = append(lu.etaVals, piv)
	lu.etaMask[p] |= bit
	for _, i := range wNZ {
		if v := w[i]; v != 0 && int(i) != p {
			lu.etaPos = append(lu.etaPos, i)
			lu.etaVals = append(lu.etaVals, v)
			lu.etaMask[i] |= bit
		}
	}
	lu.etaPtr = append(lu.etaPtr, int32(len(lu.etaPos)))
	return etaOK
}
