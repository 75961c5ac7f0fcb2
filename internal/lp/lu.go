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
// Key rows (generalized upper bounding, Dantzig & Van Slyke): a key
// row is one whose coefficients are all +1 and whose columns lie in no
// other key row (keyRows.find). factor picks one basic member of each
// key row as its key column and factors only the Schur complement over
// the other rows, S = A_N − A_K·G_N, where the key block is I, A_K holds
// the key columns' other entries and G_N has a 1 where a non-key basic
// column is a member of a key row. The solves wrap S's with the key
// block's two substitutions. A basis without key rows factors B itself.
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
	ms int // rows S spans: m less the key rows; the elimination's steps

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

	// Key block of the last factor; nk == 0 when the basis has none.
	// Key g is the key row keyRow[g] (keyOnRow inverts it; both are the
	// layout's keyRows). Its key column sits at basis position keyPos[g]
	// and is column kCol[g] of the factored working matrix aPtr/aRows/
	// aVals; that column's entries off row keyRow[g] are A_K's column g.
	// Row-wise, ktRow/ktVals[ktPtr[r]:
	// ktPtr[r+1]] list the key rows whose A_K column meets row r, with
	// its entry there. Per position p, keyAt[p] is the key whose key
	// column sits there and member[p] the key whose row a non-key column
	// there is a member of (else -1); mPos[mPtr[g]:mPtr[g+1]] lists key
	// g's non-key members. factor builds S in sPtr/sRows/sVals, its
	// column i at basis position nPos[i] (sCols is the identity over S's
	// columns).
	nk       int
	keyRow   []int32
	keyOnRow []int32
	keyPos   []int32
	kCol     []int32
	aPtr     []int32
	aRows    []int32
	aVals    []float64
	ktPtr    []int32
	ktRow    []int32
	ktVals   []float64
	keyAt    []int32
	member   []int32
	mPtr     []int32
	mPos     []int32
	sPtr     []int32
	sRows    []int32
	sVals    []float64
	sCols    []int
	nPos     []int32

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
	keyHit  []int32 // ftranSparse: indices of b's entries on key rows

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

// nnz returns the size of the factored basis: L + U + diagonal, plus
// the key block's entries (A_K and G_N; its identity is in the
// diagonal), so that the eta-fill bound weighs the eta file against
// the whole basis whether or not key rows spare it the elimination.
func (lu *luBasis) nnz() int {
	return len(lu.lVals) + len(lu.uVals) + len(lu.ktRow) + len(lu.mPos) + lu.m
}

// keyRows is a working matrix's key-row structure (see luBasis): row
// lists the key rows in ascending order, onRow maps a row to its index
// in row (or -1), and of maps a column to the key row it is a member
// of (or -1). The simplex finds it with the layout and hands it to
// every factor.
type keyRows struct {
	row   []int32
	onRow []int32
	of    []int32
	ptr   []int32 // find's scratch: candidate rows' columns, row-wise
	cols  []int32
}

// find marks the key rows of the m-row working matrix colPtr/rowIdx/
// vals: scanning rows in order, a row is a key row when every
// coefficient in it is +1 and none of its columns is a member of an
// earlier key row. Every layout row has a slack or artificial, so a
// key row always has a member.
func (k *keyRows) find(m int, colPtr, rowIdx []int32, vals []float64) {
	n := len(colPtr) - 1
	k.onRow = grow(k.onRow, m, m)
	k.of = grow(k.of, n, n)
	k.row = k.row[:0]
	const candidate = -2
	onRow := k.onRow
	for i := range onRow {
		onRow[i] = candidate
	}
	for q, r := range rowIdx {
		if vals[q] != 1 {
			onRow[r] = -1
		}
	}
	ptr := grow(k.ptr, m+1, m+1)
	clear(ptr)
	for _, r := range rowIdx {
		if onRow[r] == candidate {
			ptr[r+1]++
		}
	}
	for i := 0; i < m; i++ {
		ptr[i+1] += ptr[i]
	}
	cols := grow(k.cols, int(ptr[m]), int(ptr[m]))
	for j := 0; j < n; j++ {
		k.of[j] = -1
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			if r := rowIdx[q]; onRow[r] == candidate {
				cols[ptr[r]] = int32(j)
				ptr[r]++
			}
		}
	}
	// The fill advanced each candidate row's start to its end: row i's
	// columns are cols[ptr[i-1]:ptr[i]] (from 0 for row 0).
	start := int32(0)
	for i := 0; i < m; i++ {
		end := ptr[i]
		if onRow[i] != candidate {
			start = end
			continue
		}
		onRow[i] = -1
		free := true
		for _, j := range cols[start:end] {
			if k.of[j] >= 0 {
				free = false
				break
			}
		}
		if free {
			g := int32(len(k.row))
			for _, j := range cols[start:end] {
				k.of[j] = g
			}
			onRow[i] = g
			k.row = append(k.row, int32(i))
		}
		start = end
	}
	k.ptr, k.cols = ptr, cols
}

// splitKeys picks each key row's key column among the basic columns —
// the member with the fewest entries (the row's slack or artificial
// whenever that is basic), ties to the lowest column index — records
// the key block, and builds S = A_N − A_K·G_N in sPtr/sRows/sVals with
// one column per non-key position, in ascending position order. A
// member's S column is its own entries off its key row less its key
// column's, merged by row; for path columns of one request every
// difference is 0 or exact. False means a key row has no basic member:
// the basis is singular.
func (lu *luBasis) splitKeys(colPtr, rowIdx []int32, vals []float64, basic []int, keys *keyRows) bool {
	m, nk := lu.m, len(keys.row)
	keyPos := grow(lu.keyPos, nk, nk)
	lu.keyPos = keyPos
	for g := range keyPos {
		keyPos[g] = -1
	}
	for p, j := range basic {
		g := keys.of[j]
		if g < 0 {
			continue
		}
		if cur := keyPos[g]; cur >= 0 {
			jc := basic[cur]
			n, nc := colPtr[j+1]-colPtr[j], colPtr[jc+1]-colPtr[jc]
			if n > nc || (n == nc && j > jc) {
				continue
			}
		}
		keyPos[g] = int32(p)
	}
	for _, p := range keyPos {
		if p < 0 {
			return false
		}
	}
	lu.nk = nk
	lu.keyRow, lu.keyOnRow = keys.row, keys.onRow

	lu.keyAt = grow(lu.keyAt, m, m)
	lu.member = grow(lu.member, m, m)
	lu.mPtr = grow(lu.mPtr, nk+1, nk+1)
	clear(lu.mPtr)
	for p, j := range basic {
		lu.keyAt[p], lu.member[p] = -1, -1
		if g := keys.of[j]; g >= 0 && keyPos[g] != int32(p) {
			lu.member[p] = g
			lu.mPtr[g+1]++
		}
	}
	for g := 0; g < nk; g++ {
		lu.mPtr[g+1] += lu.mPtr[g]
		lu.keyAt[keyPos[g]] = int32(g)
	}
	lu.mPos = grow(lu.mPos, int(lu.mPtr[nk]), int(lu.mPtr[nk]))
	fill := append(lu.order[:0], lu.mPtr[:nk]...)
	for p, g := range lu.member {
		if g >= 0 {
			lu.mPos[fill[g]] = int32(p)
			fill[g]++
		}
	}
	lu.order = fill[:0]

	// A_K: the key columns in place, and row-wise.
	lu.aPtr, lu.aRows, lu.aVals = colPtr, rowIdx, vals
	lu.kCol = grow(lu.kCol, nk, nk)
	lu.ktPtr = grow(lu.ktPtr, m+1, m+1)
	clear(lu.ktPtr)
	for g, p := range keyPos {
		j := basic[p]
		lu.kCol[g] = int32(j)
		for _, r := range rowIdx[colPtr[j]:colPtr[j+1]] {
			lu.ktPtr[r+1]++
		}
		lu.ktPtr[keys.row[g]+1]--
	}
	for r := 0; r < m; r++ {
		lu.ktPtr[r+1] += lu.ktPtr[r]
	}
	kNNZ := int(lu.ktPtr[m])
	lu.ktRow = grow(lu.ktRow, kNNZ, kNNZ)
	lu.ktVals = grow(lu.ktVals, kNNZ, kNNZ)
	fill = append(lu.order[:0], lu.ktPtr[:m]...)
	for g, r0 := range keys.row {
		j := lu.kCol[g]
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			if r := rowIdx[q]; r != r0 {
				lu.ktRow[fill[r]] = r0
				lu.ktVals[fill[r]] = vals[q]
				fill[r]++
			}
		}
	}
	lu.order = fill[:0]

	// S, one column per non-key position.
	lu.sPtr = append(lu.sPtr[:0], 0)
	lu.sRows, lu.sVals, lu.nPos = lu.sRows[:0], lu.sVals[:0], lu.nPos[:0]
	for p, j := range basic {
		if lu.keyAt[p] >= 0 {
			continue
		}
		q, qEnd := colPtr[j], colPtr[j+1]
		if g := lu.member[p]; g < 0 {
			lu.sRows = append(lu.sRows, rowIdx[q:qEnd]...)
			lu.sVals = append(lu.sVals, vals[q:qEnd]...)
		} else {
			r0, k := keys.row[g], lu.kCol[g]
			kq, kEnd := colPtr[k], colPtr[k+1]
			for q < qEnd || kq < kEnd {
				switch {
				case q < qEnd && rowIdx[q] == r0:
					q++
				case kq < kEnd && rowIdx[kq] == r0:
					kq++
				case kq == kEnd || (q < qEnd && rowIdx[q] < rowIdx[kq]):
					lu.sRows = append(lu.sRows, rowIdx[q])
					lu.sVals = append(lu.sVals, vals[q])
					q++
				case q == qEnd || rowIdx[kq] < rowIdx[q]:
					lu.sRows = append(lu.sRows, rowIdx[kq])
					lu.sVals = append(lu.sVals, -vals[kq])
					kq++
				default:
					if v := vals[q] - vals[kq]; v != 0 {
						lu.sRows = append(lu.sRows, rowIdx[q])
						lu.sVals = append(lu.sVals, v)
					}
					q++
					kq++
				}
			}
		}
		lu.sPtr = append(lu.sPtr, int32(len(lu.sRows)))
		lu.nPos = append(lu.nPos, int32(p))
	}
	ms := len(lu.nPos)
	lu.sCols = grow(lu.sCols, ms, ms)
	for i := range lu.sCols {
		lu.sCols[i] = i
	}
	return true
}

// factor builds the decomposition for the basis matrix whose column i
// is working-matrix column basic[i] (CSC arrays colPtr/rowIdx/vals),
// whose key rows are keys (nil: none). It returns false iff the basis
// is numerically singular; lu.ok mirrors the result. Any eta file from
// a previous factor is discarded.
func (lu *luBasis) factor(m int, colPtr, rowIdx []int32, vals []float64, basic []int, keys *keyRows) bool {
	lu.m = m
	lu.ok = false
	lu.nk = 0
	lu.ktRow, lu.mPos = lu.ktRow[:0], lu.mPos[:0]
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
	ms := m
	if keys != nil && len(keys.row) > 0 {
		if !lu.splitKeys(colPtr, rowIdx, vals, basic, keys) {
			return false
		}
		colPtr, rowIdx, vals, basic = lu.sPtr, lu.sRows, lu.sVals, lu.sCols
		ms = len(basic)
	}
	lu.ms = ms

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
	for k := 0; k < ms; k++ {
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
	if lu.nk > 0 {
		for k, i := range lu.colOrder[:ms] {
			lu.colOrder[k] = lu.nPos[i]
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
	m := lu.ms
	lu.posStep = grow(lu.posStep, lu.m, lu.m)
	if lu.nk > 0 {
		for _, p := range lu.keyPos {
			lu.posStep[p] = -1 // key positions have no step
		}
	}
	for k := 0; k < m; k++ {
		lu.posStep[lu.colOrder[k]] = int32(k)
	}
	lu.workB = grow(lu.workB, lu.m, lu.m)
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
	m := lu.ms
	// Key rows: b_A ← b_A − A_K·b_G, leaving b_G in place for x_K.
	for g, r := range lu.keyRow[:lu.nk] {
		if v := b[r]; v != 0 {
			lu.subKey(g, v, b)
		}
	}
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
	// Key columns: x_K = b_G − G_N·x_N.
	if lu.nk > 0 {
		for g, p := range lu.keyPos[:lu.nk] {
			x[p] = b[lu.keyRow[g]]
		}
		for p, g := range lu.member[:lu.m] {
			if g >= 0 {
				x[lu.keyPos[g]] -= x[p]
			}
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
	// An entry on a key row g enters as −A_K's column g, whose rows join
	// the pattern; keyHit remembers it for x_K.
	stamp := lu.nextStamp()
	reach := lu.reach[:0]
	keyHit := lu.keyHit[:0]
	for i, r := range rows {
		if lu.nk > 0 && lu.keyOnRow[r] >= 0 {
			keyHit = append(keyHit, int32(i))
			j := lu.kCol[lu.keyOnRow[r]]
			for _, r2 := range lu.aRows[lu.aPtr[j]:lu.aPtr[j+1]] {
				if s := lu.pinv[r2]; r2 != r && lu.stepMk[s] != stamp {
					reach = lu.dfs(lu.lPtr, lu.lSteps, s, stamp, reach)
				}
			}
			continue
		}
		if s := lu.pinv[r]; lu.stepMk[s] != stamp {
			reach = lu.dfs(lu.lPtr, lu.lSteps, s, stamp, reach)
		}
	}
	lu.reach, lu.keyHit = reach, keyHit

	// Forward solve L·z = P·b over the reached steps only. Every row an
	// L column can touch belongs to a reached step, so pre-zeroing the
	// reached rows makes the scatter-subtract below safe.
	for _, k := range reach {
		b[lu.rowOf[k]] = 0
	}
	if len(keyHit) == 0 {
		for i, r := range rows {
			b[r] = vals[i]
		}
	} else {
		for i, r := range rows {
			if lu.keyOnRow[r] < 0 {
				b[r] = vals[i]
			}
		}
		for _, i := range keyHit {
			lu.subKey(int(lu.keyOnRow[rows[i]]), vals[i], b)
		}
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

	// Key columns: x_K = b_G − G_N·x_N, over the keys b hits and those
	// of the members x_N reached.
	if lu.nk > 0 {
		nN := len(xNZ)
		for _, i := range keyHit {
			p := lu.keyPos[lu.keyOnRow[rows[i]]]
			x[p] = vals[i]
			lu.posMk[p] = xStamp
			xNZ = append(xNZ, p)
		}
		for _, pos := range xNZ[:nN] {
			if g := lu.member[pos]; g >= 0 {
				p := lu.keyPos[g]
				x[p] -= x[pos]
				if lu.posMk[p] != xStamp {
					lu.posMk[p] = xStamp
					xNZ = append(xNZ, p)
				}
			}
		}
	}

	// Product-form updates, oldest first, extending the pattern as etas
	// fill in new positions.
	etaPtr, etaPos, etaVals, posMk := lu.etaPtr, lu.etaPos, lu.etaVals, lu.posMk
	for e := 1; e < len(etaPtr); e++ {
		start, end := etaPtr[e-1], etaPtr[e]
		p := etaPos[start]
		xp := x[p]
		if xp == 0 {
			continue
		}
		xp /= etaVals[start]
		x[p] = xp
		pos := etaPos[start+1 : end]
		vals := etaVals[start+1 : end][:len(pos)]
		for q, i := range pos {
			x[i] -= vals[q] * xp
			if posMk[i] != xStamp {
				posMk[i] = xStamp
				xNZ = append(xNZ, i)
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
	etaPtr, etaPos, etaVals := lu.etaPtr, lu.etaPos, lu.etaVals
	for e := 1; e < len(etaPtr); e++ {
		start, end := etaPtr[e-1], etaPtr[e]
		p := etaPos[start]
		xp := x[p]
		if xp == 0 {
			continue
		}
		xp /= etaVals[start]
		x[p] = xp
		pos := etaPos[start+1 : end]
		vals := etaVals[start+1 : end][:len(pos)]
		for q, i := range pos {
			x[i] -= vals[q] * xp
		}
	}
}

// btran solves Bᵀ·y = c. c is indexed by basis position and is
// DESTROYED; y is indexed by original row and fully overwritten. c and
// y must both have length m and must not alias.
func (lu *luBasis) btran(c, y []float64) {
	m := lu.ms
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
	// Key rows: c_N ← c_N − G_Nᵀ·c_K, leaving c_K in place for y_G.
	if lu.nk > 0 {
		for p, g := range lu.member[:lu.m] {
			if g >= 0 {
				c[p] -= c[lu.keyPos[g]]
			}
		}
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
	// Key rows: y_G = c_K − A_Kᵀ·y_A.
	for g, p := range lu.keyPos[:lu.nk] {
		y[lu.keyRow[g]] = lu.keyDual(g, c[p], y)
	}
}

// subKey subtracts v times A_K's column g from the row-space vector b.
func (lu *luBasis) subKey(g int, v float64, b []float64) {
	j, r0 := lu.kCol[g], lu.keyRow[g]
	lo, hi := lu.aPtr[j], lu.aPtr[j+1]
	vals := lu.aVals[lo:hi]
	for q, r := range lu.aRows[lo:hi] {
		if r != r0 {
			b[r] -= vals[q] * v
		}
	}
}

// keyDual returns c_K[g] − (A_Kᵀ·y)[g], the dual of key row g given
// the key column's cost cg and the duals y of the other rows.
func (lu *luBasis) keyDual(g int, cg float64, y []float64) float64 {
	j, r0 := lu.kCol[g], lu.keyRow[g]
	lo, hi := lu.aPtr[j], lu.aPtr[j+1]
	vals := lu.aVals[lo:hi]
	for q, r := range lu.aRows[lo:hi] {
		if r != r0 {
			cg -= vals[q] * y[r]
		}
	}
	return cg
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
	// only zeros and leaves its pivot zero, so its arithmetic is
	// skipped. Every pivot position still joins the pattern in eta
	// order, which keeps the discovery order — and so the downstream
	// accumulation order — of the full pass.
	stamp := lu.nextStamp()
	var active uint64
	for _, p := range cNZ {
		lu.posMk[p] = stamp
		active |= lu.etaMask[p]
	}
	etaPtr, etaPos, etaVals := lu.etaPtr, lu.etaPos, lu.etaVals
	for e := len(etaPtr) - 2; e >= 0; e-- {
		start, end := etaPtr[e], etaPtr[e+1]
		p := etaPos[start]
		if active&(1<<e) != 0 {
			acc := c[p]
			pos := etaPos[start+1 : end]
			vals := etaVals[start+1 : end][:len(pos)]
			for q, i := range pos {
				acc -= vals[q] * c[i]
			}
			c[p] = acc / etaVals[start]
			active |= lu.etaMask[p]
		}
		if lu.posMk[p] != stamp {
			lu.posMk[p] = stamp
			cNZ = append(cNZ, p)
		}
	}

	// Key rows: c_N ← c_N − G_Nᵀ·c_K; a key position's value reaches
	// its row's non-key members, which join the pattern. c_K stays for
	// y_G.
	nC := len(cNZ)
	if lu.nk > 0 {
		for _, p := range cNZ[:nC] {
			g := lu.keyAt[p]
			if g < 0 || c[p] == 0 {
				continue
			}
			v := c[p]
			for _, q := range lu.mPos[lu.mPtr[g]:lu.mPtr[g+1]] {
				c[q] -= v
				if lu.posMk[q] != stamp {
					lu.posMk[q] = stamp
					cNZ = append(cNZ, q)
				}
			}
		}
	}

	// Reachable steps of the transposed-U graph from ĉ's pattern: the
	// candidate nonzero pattern of the forward solve Uᵀ·z = ĉ. Reverse
	// postorder order processes smaller steps first. Key positions have
	// no step.
	stamp = lu.nextStamp()
	reachB := lu.reachB[:0]
	for _, p := range cNZ {
		if c[p] != 0 {
			if k := lu.posStep[p]; k >= 0 && lu.stepMk[k] != stamp {
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

	// Key rows: y_G = c_K − A_Kᵀ·y_A, pushed from y_A's pattern through
	// the row-wise index, so only the keys it meets are touched.
	if lu.nk > 0 {
		mark := lu.nextStamp()
		nA := len(yNZ)
		for _, p := range cNZ[:nC] {
			if g := lu.keyAt[p]; g >= 0 && c[p] != 0 {
				r0 := lu.keyRow[g]
				lu.rowMark[r0] = mark
				y[r0] = c[p]
				yNZ = append(yNZ, r0)
			}
		}
		for _, r := range yNZ[:nA] {
			v := y[r]
			if v == 0 {
				continue
			}
			lo, hi := lu.ktPtr[r], lu.ktPtr[r+1]
			vals := lu.ktVals[lo:hi]
			for q, r0 := range lu.ktRow[lo:hi] {
				if lu.rowMark[r0] != mark {
					lu.rowMark[r0] = mark
					yNZ = append(yNZ, r0)
				}
				y[r0] -= vals[q] * v
			}
		}
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
