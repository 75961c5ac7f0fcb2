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
// A basis change is absorbed in place (update), in one of three ways:
//   - a key swap (the key column leaves, a member of its key row enters
//     and the row has no other basic member) rewrites the key block
//     alone: S = A_N − A_K·G_N does not change, because G_N has no
//     entry in that row;
//   - a key change (the key column leaves while other members stay
//     basic) relabels the row's key to one of them, which negates one
//     column of S and moves the other members' columns by it, and then
//     replaces a column of S like any other pivot;
//   - a pivot that replaces a column of S is a Forrest–Tomlin update of
//     U (Forrest & Tomlin 1972; Suhl & Suhl 1993): the new column's
//     partial FTRAN (the spike) takes the old one's slot, the slot moves
//     to the end of U's triangular order, and the row it leaves behind
//     is eliminated into a row eta of the file R. L never changes.
//
// The solves apply R between L and U: S = L·R⁻¹·U over slots. U is kept
// in slot space, so its column and row lists stay the DFS graphs of the
// sparse solves; seq records its triangular order for the dense ones.
// An update is refused — forcing a refactorization — by the stability
// test, when its pivot is small against the direction or the
// Forrest–Tomlin diagonal disagrees with it, and by U's growth, when U
// and R have grown past a multiple of the fresh factor.
type luBasis struct {
	ok bool
	m  int
	ms int // rows S spans: m less the key rows; the elimination's steps

	// Elimination-order maps: step k pivoted original row rowOf[k] and
	// its U slot k now holds the column of basis position colOrder[k];
	// pinv inverts rowOf.
	rowOf    []int32
	pinv     []int32
	colOrder []int32

	// L is unit lower triangular over elimination steps; column k holds
	// the multipliers of rows not yet pivoted at step k, indexed by
	// ORIGINAL row (the unit diagonal is implicit). U lives in slot
	// space: uc's list k is slot k's column (off-diagonal entries, by
	// slot), uDiag[k] its diagonal, and ut's list t is row t's pattern
	// (the slots whose column holds t). U is upper triangular in the
	// order seq; a fresh factor's order is the elimination order.
	lPtr  []int32
	lRows []int32
	lVals []float64
	uc    spLists
	ut    spLists
	uDiag []float64
	seq   []int32
	uNNZ  int // live off-diagonal entries of U

	// Row-eta file R: eta e replaces slot rPiv[e]'s entry x_k by
	// x_k − Σ r_t·x_t over rIdx/rVal[rPtr[e]:rPtr[e+1]].
	rPtr []int32
	rPiv []int32
	rIdx []int32
	rVal []float64
	// size0 is nnz(L)+nnz(U) of the fresh factor, the growth bound's
	// reference.
	size0 int

	// Key block; nk == 0 when the basis has none. Key g is the key row
	// keyRow[g] (keyOnRow inverts it; both are the layout's keyRows, and
	// keyOf maps a working column to its key row). Its key column sits
	// at basis position keyPos[g] and is column kCol[g] of the working
	// matrix aPtr/aRows/aVals; that column's entries off row keyRow[g]
	// are A_K's column g. Row-wise, kt's list r holds the key rows whose
	// A_K column meets row r, with its entry there. Per position p,
	// colAt[p] is the basic working column, keyAt[p] the key whose key
	// column sits there and member[p] the key whose row a non-key column
	// there is a member of (else -1); key g's non-key members are the
	// list mHead[g], mNext[...] (mPrev links back). factor builds S in
	// sPtr/sRows/sVals, its column i at basis position nPos[i] (sCols is
	// the identity over S's columns).
	nk       int
	keyRow   []int32
	keyOnRow []int32
	keyOf    []int32
	keyPos   []int32
	kCol     []int32
	aPtr     []int32
	aRows    []int32
	aVals    []float64
	kt       spLists
	kNNZ     int
	colAt    []int32
	keyAt    []int32
	member   []int32
	mHead    []int32
	mNext    []int32
	mPrev    []int32
	nMem     int
	sPtr     []int32
	sRows    []int32
	sVals    []float64
	sCols    []int
	nPos     []int32

	// Patterns rebuilt with the factors for the sparse solves' dfs
	// walks. lSteps is lRows mapped through pinv: L column k's
	// successors as steps, the L graph of ftranSparse. posStep inverts
	// colOrder (−1 at key positions). ltCols[ltPtr[t]:ltPtr[t+1]] lists
	// the steps k < t whose L column contains row rowOf[t], the Lᵀ graph
	// of btranSparse; its Uᵀ graph is ut.
	lSteps  []int32
	posStep []int32
	ltPtr   []int32
	ltCols  []int32

	// The spike: the last sparse FTRAN's partial solution after L and
	// R, by slot (spkNZ/spkVal). ftranSparse of the entering column
	// leaves it for the update.
	spkNZ  []int32
	spkVal []float64
	entNZ  []int32 // the entering column's spike while a key change
	entVal []float64

	// Scratch reused across factors and solves.
	work    []float64 // step-space scratch of the dense solves
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

	// Slot-space scratch that is all-zero between calls: workF carries
	// the sparse FTRAN (and the update's spike), workB the sparse BTRAN
	// (and the update's row solve). reachB and reachC hold the steps dfs
	// reached in Uᵀ / Lᵀ, in postorder; replace and spikeSum borrow them
	// between solves.
	workF  []float64
	workB  []float64
	reachB []int32
	reachC []int32
}

// spLists is a family of growable sparse lists in shared arrays: list
// i is idx[beg[i]:end[i]] (with values val[beg[i]:end[i]] when hasVal),
// with room up to lim[i]. A list that outgrows
// its room moves to the arrays' end with twice the room; the space it
// leaves is dead until the family is laid out again.
type spLists struct {
	beg, end, lim []int32
	idx           []int32
	val           []float64
	hasVal        bool
}

// layout empties the family to len(cnt) lists, list i with room for
// cnt[i]+slack entries.
func (l *spLists) layout(cnt []int32, slack int32, vals bool) {
	n := len(cnt)
	l.beg = grow(l.beg, n, n)
	l.end = grow(l.end, n, n)
	l.lim = grow(l.lim, n, n)
	at := int32(0)
	for i, c := range cnt {
		l.beg[i], l.end[i] = at, at
		at += c + slack
		l.lim[i] = at
	}
	l.idx = grow(l.idx, int(at), int(at))
	l.hasVal = vals
	if vals {
		l.val = grow(l.val, int(at), int(at))
	}
}

// push appends (x, v) to list i; v is dropped by a family without
// values.
func (l *spLists) push(i, x int32, v float64) {
	e := l.end[i]
	if e == l.lim[i] {
		n := e - l.beg[i]
		room := 2*n + 4
		at := int32(len(l.idx))
		l.idx = slices.Grow(l.idx, int(room))[:at+room]
		copy(l.idx[at:], l.idx[l.beg[i]:e])
		if l.hasVal {
			l.val = slices.Grow(l.val, int(room))[:at+room]
			copy(l.val[at:], l.val[l.beg[i]:e])
		}
		l.beg[i], l.lim[i] = at, at+room
		e = at + n
	}
	l.idx[e] = x
	if l.hasVal {
		l.val[e] = v
	}
	l.end[i] = e + 1
}

// remove deletes x from list i, moving the list's last entry into its
// place, and returns x's value (0 when absent or without values).
func (l *spLists) remove(i, x int32) float64 {
	b, e := l.beg[i], l.end[i]-1
	for q := b; q <= e; q++ {
		if l.idx[q] != x {
			continue
		}
		var v float64
		l.idx[q] = l.idx[e]
		if l.hasVal {
			v = l.val[q]
			l.val[q] = l.val[e]
		}
		l.end[i] = e
		return v
	}
	return 0
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
// pivots (and possibly more fill); the update bounds say how far the
// factors may drift from fresh before a refactorization is forced.
const (
	// luPivotThreshold is the threshold-pivoting relaxation u: any row
	// within u·max|column| is an acceptable pivot, and the sparsest wins.
	luPivotThreshold = 0.1
	// luZeroTol is the absolute magnitude below which a would-be pivot
	// is treated as zero (the column is declared singular).
	luZeroTol = 1e-11
	// luUpdStabTol refuses an update whose pivot is smaller than this
	// fraction of the direction's largest entry.
	luUpdStabTol = 1e-8
	// luFTStabTol is the Forrest–Tomlin stability test: the updated
	// diagonal must match the pivot times the replaced diagonal (their
	// ratio is the determinant's) to this relative tolerance.
	luFTStabTol = 1e-8
	// luTiny is the magnitude below which a sparse BTRAN's result is
	// roundoff where exact arithmetic cancels to zero; btranSparse
	// returns it as zero, so that a pivot-row gather skips it.
	luTiny = 1e-14
	// luGrowth·size0 + luGrowSlack·ms bounds U's storage plus R's
	// entries before a refactorization is forced.
	luGrowth    = 2
	luGrowSlack = 2
	// luListSlack is the room for updates each row list of a fresh
	// factor gets beyond its entries.
	luListSlack = 4
)

// updOutcome classifies an update attempt.
type updOutcome int

const (
	updOK updOutcome = iota
	updUnstable
	updGrowth
)

// nnz returns the size of the factored basis: L + U + diagonal, plus
// the key block's entries (A_K and G_N; its identity is in the
// diagonal), so that the figure weighs the whole basis whether or not
// key rows spare it the elimination.
func (lu *luBasis) nnz() int {
	return len(lu.lVals) + lu.uNNZ + lu.kNNZ + lu.nMem + lu.m
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
		if cur := keyPos[g]; cur >= 0 && !fewerEntries(colPtr, j, basic[cur]) {
			continue
		}
		keyPos[g] = int32(p)
	}
	for _, p := range keyPos {
		if p < 0 {
			return false
		}
	}
	lu.nk = nk
	lu.keyRow, lu.keyOnRow, lu.keyOf = keys.row, keys.onRow, keys.of

	lu.keyAt = grow(lu.keyAt, m, m)
	lu.member = grow(lu.member, m, m)
	lu.mNext = grow(lu.mNext, m, m)
	lu.mPrev = grow(lu.mPrev, m, m)
	lu.mHead = grow(lu.mHead, nk, nk)
	for g := range lu.mHead {
		lu.mHead[g] = -1
	}
	for p := range lu.keyAt {
		lu.keyAt[p], lu.member[p] = -1, -1
	}
	for g, p := range keyPos {
		lu.keyAt[p] = int32(g)
	}
	// Linked from the last position down, so each list runs ascending.
	for p := len(basic) - 1; p >= 0; p-- {
		if g := keys.of[basic[p]]; g >= 0 && lu.keyAt[p] < 0 {
			lu.link(int32(p), g)
		}
	}

	// A_K: the key columns in place, and row-wise.
	lu.kCol = grow(lu.kCol, nk, nk)
	cnt := grow(lu.order, m, m)
	clear(cnt)
	for g, p := range keyPos {
		j := basic[p]
		lu.kCol[g] = int32(j)
		for _, r := range rowIdx[colPtr[j]:colPtr[j+1]] {
			cnt[r]++
		}
		cnt[keys.row[g]]--
	}
	lu.kt.layout(cnt, luListSlack, true)
	lu.order = cnt[:0]
	for g := range keys.row {
		lu.addKey(int32(g))
	}

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

// fewerEntries reports whether working column j makes a better key
// column than jc: fewer entries, ties to the lower index.
func fewerEntries(colPtr []int32, j, jc int) bool {
	n, nc := colPtr[j+1]-colPtr[j], colPtr[jc+1]-colPtr[jc]
	return n < nc || n == nc && j < jc
}

// link makes basis position p a non-key member of key g.
func (lu *luBasis) link(p, g int32) {
	h := lu.mHead[g]
	lu.member[p], lu.mNext[p], lu.mPrev[p] = g, h, -1
	if h >= 0 {
		lu.mPrev[h] = p
	}
	lu.mHead[g] = p
	lu.nMem++
}

// unlink takes member position p off its key's list.
func (lu *luBasis) unlink(p int32) {
	next, prev := lu.mNext[p], lu.mPrev[p]
	if prev >= 0 {
		lu.mNext[prev] = next
	} else {
		lu.mHead[lu.member[p]] = next
	}
	if next >= 0 {
		lu.mPrev[next] = prev
	}
	lu.member[p] = -1
	lu.nMem--
}

// addKey enters key g's A_K column (its key column off the key row) in
// the row-wise index.
func (lu *luBasis) addKey(g int32) {
	j, r0 := lu.kCol[g], lu.keyRow[g]
	for q := lu.aPtr[j]; q < lu.aPtr[j+1]; q++ {
		if r := lu.aRows[q]; r != r0 {
			lu.kt.push(r, r0, lu.aVals[q])
			lu.kNNZ++
		}
	}
}

// setKeyCol makes working column j key g's key column: A_K's column g
// and the row-wise index follow.
func (lu *luBasis) setKeyCol(g, j int32) {
	k, r0 := lu.kCol[g], lu.keyRow[g]
	for _, r := range lu.aRows[lu.aPtr[k]:lu.aPtr[k+1]] {
		if r != r0 {
			lu.kt.remove(r, r0)
			lu.kNNZ--
		}
	}
	lu.kCol[g] = j
	lu.addKey(g)
}

// factor builds the decomposition for the basis matrix whose column i
// is working-matrix column basic[i] (CSC arrays colPtr/rowIdx/vals),
// whose key rows are keys (nil: none). It returns false iff the basis
// is numerically singular; lu.ok mirrors the result. Every update since
// the previous factor is discarded.
func (lu *luBasis) factor(m int, colPtr, rowIdx []int32, vals []float64, basic []int, keys *keyRows) bool {
	lu.m = m
	lu.ok = false
	lu.nk = 0
	lu.kNNZ, lu.nMem = 0, 0
	lu.aPtr, lu.aRows, lu.aVals = colPtr, rowIdx, vals
	lu.rPtr = append(lu.rPtr[:0], 0)
	lu.rPiv, lu.rIdx, lu.rVal = lu.rPiv[:0], lu.rIdx[:0], lu.rVal[:0]
	lu.colAt = grow(lu.colAt, m, m)
	for p, j := range basic {
		lu.colAt[p] = int32(j)
	}

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
	ms := m
	if keys != nil && len(keys.row) > 0 {
		if !lu.splitKeys(colPtr, rowIdx, vals, basic, keys) {
			return false
		}
		colPtr, rowIdx, vals, basic = lu.sPtr, lu.sRows, lu.sVals, lu.sCols
		ms = len(basic)
	}
	lu.ms = ms
	uc := &lu.uc
	uc.beg = grow(uc.beg, ms, ms)
	uc.end = grow(uc.end, ms, ms)
	uc.lim = grow(uc.lim, ms, ms)
	uc.idx, uc.val, uc.hasVal = uc.idx[:0], uc.val[:0], true

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
		uc.beg[k] = int32(len(uc.idx))
		for _, s := range lu.reach {
			if v := w[lu.rowOf[s]]; v != 0 {
				uc.idx = append(uc.idx, s)
				uc.val = append(uc.val, v)
			}
		}
		uc.end[k] = int32(len(uc.idx))
		uc.lim[k] = uc.end[k]
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
	lu.uNNZ = len(uc.idx)
	lu.size0 = len(lu.lVals) + lu.uNNZ
	lu.buildReverse()
	lu.ok = true
	return true
}

// buildReverse derives the step-space and row-wise reachability
// patterns (posStep, lSteps, ut, ltPtr/ltCols) and U's order from the
// freshly built factors: one counting pass and one fill pass over each
// factor, O(nnz(L)+nnz(U)+m).
func (lu *luBasis) buildReverse() {
	m := lu.ms
	lu.posStep = grow(lu.posStep, lu.m, lu.m)
	for p := range lu.posStep {
		lu.posStep[p] = -1 // key positions have no step
	}
	lu.seq = grow(lu.seq, m, m)
	for k := 0; k < m; k++ {
		lu.posStep[lu.colOrder[k]] = int32(k)
		lu.seq[k] = int32(k)
	}
	// Establish the all-zero invariant the sparse solves keep.
	lu.workF = grow(lu.workF, lu.m, lu.m)
	clear(lu.workF)
	lu.workB = grow(lu.workB, lu.m, lu.m)
	clear(lu.workB)

	cnt := grow(lu.order, m, m)
	clear(cnt)
	for _, t := range lu.uc.idx {
		cnt[t]++
	}
	lu.ut.layout(cnt, luListSlack, false)
	for k := int32(0); k < int32(m); k++ {
		for _, t := range lu.uc.idx[lu.uc.beg[k]:lu.uc.end[k]] {
			lu.ut.push(t, k, 0)
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
	fill := append(cnt[:0], lu.ltPtr[:m]...)
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
// whose step s has successors adj[beg[s]:end[s]], skipping and marking
// steps through lu.stepMk and stamp, and returns out. The walk is
// POSTORDER: a step is appended only after all its successors, so the
// reverse of the append order is a topological order and the solves
// need no sort (Gilbert–Peierls; the design of CSparse's cs_dfs). It is
// iterative: stack[:head+1] is the current path and pstack[i] the next
// successor of stack[i] to scan; a walk pushes a step at most once, so
// both fit in m entries. The four solve graphs are L (lPtr/lSteps), U
// (uc), Uᵀ (ut) and Lᵀ (ltPtr/ltCols), all in step space, so callers
// need a complete factorization.
func (lu *luBasis) dfs(beg, end, adj []int32, start, stamp int32, out []int32) []int32 {
	mk := lu.stepMk
	mk[start] = stamp
	if beg[start] == end[start] {
		return append(out, start) // a hypersparse solve's common case
	}
	stack, pstack := lu.stack[:lu.m], lu.pstack[:lu.m]
	stack[0], pstack[0] = start, beg[start]
	for head := 0; head >= 0; {
		s := stack[head]
		idx, e := pstack[head], end[s]
		for idx < e && mk[adj[idx]] == stamp {
			idx++
		}
		if idx == e {
			out = append(out, s)
			head--
			continue
		}
		t := adj[idx]
		pstack[head] = idx + 1
		mk[t] = stamp
		head++
		stack[head], pstack[head] = t, beg[t]
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
	w := lu.work
	for k := 0; k < m; k++ {
		w[k] = b[lu.rowOf[k]]
	}
	// Row etas, oldest first.
	for e, k := range lu.rPiv {
		lo, hi := lu.rPtr[e], lu.rPtr[e+1]
		acc := w[k]
		for q, t := range lu.rIdx[lo:hi] {
			acc -= lu.rVal[lo+int32(q)] * w[t]
		}
		w[k] = acc
	}
	// Backward solve U·x̂ = z in slot space, last slot of the order
	// first.
	uc := &lu.uc
	for i := m - 1; i >= 0; i-- {
		k := lu.seq[i]
		v := w[k]
		if v == 0 {
			x[lu.colOrder[k]] = 0
			continue
		}
		v /= lu.uDiag[k]
		x[lu.colOrder[k]] = v
		for q := uc.beg[k]; q < uc.end[k]; q++ {
			w[uc.idx[q]] -= uc.val[q] * v
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
}

// ftranSparse solves B·x = b for a sparse right-hand side given as a
// row/value list (an untouched CSC column slice). It exploits
// hypersparsity end to end: the triangular solves visit only the steps
// reachable from b's pattern through the elimination graphs. Between L
// and U it applies the row etas and records the spike, the partial
// solution a column with this right-hand side puts into U, for update.
//
// x must be all-zero on entry at every position outside the list
// returned by the PREVIOUS ftranSparse call (the caller clears those);
// on return x is B⁻¹·b and the returned list holds every position where
// x may be nonzero (it may include exact zeros from cancellation, never
// duplicates). The list aliases lu.xNZ and is valid until the next call.
func (lu *luBasis) ftranSparse(rows []int32, vals []float64, x []float64) []int32 {
	b := lu.colBuf // borrowed; restored to all-zero before the U solve

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
					reach = lu.dfs(lu.lPtr, lu.lPtr[1:], lu.lSteps, s, stamp, reach)
				}
			}
			continue
		}
		if s := lu.pinv[r]; lu.stepMk[s] != stamp {
			reach = lu.dfs(lu.lPtr, lu.lPtr[1:], lu.lSteps, s, stamp, reach)
		}
	}

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
	wf := lu.workF
	for _, k := range reach {
		r := lu.rowOf[k]
		wf[k] = b[r]
		b[r] = 0 // restore colBuf's all-zero invariant
	}

	// Row etas, oldest first. An eta writes only its pivot slot, which
	// joins the pattern when the eta moves it.
	for e, k := range lu.rPiv {
		lo, hi := lu.rPtr[e], lu.rPtr[e+1]
		acc := wf[k]
		vals := lu.rVal[lo:hi]
		for q, t := range lu.rIdx[lo:hi] {
			acc -= vals[q] * wf[t]
		}
		if acc == wf[k] {
			continue
		}
		wf[k] = acc
		if lu.stepMk[k] != stamp {
			lu.stepMk[k] = stamp
			reach = append(reach, k)
		}
	}
	lu.reach, lu.keyHit = reach, keyHit

	// That partial solution z is the spike of a column entering with
	// this right-hand side: update takes it from here. Reachable steps
	// of U's graph from z's nonzeros are the candidate nonzero pattern
	// of the backward solve. Same postorder trick; reverse append order
	// processes the later steps of U's order first.
	lu.spkNZ, lu.spkVal = lu.spkNZ[:0], lu.spkVal[:0]
	uc := &lu.uc
	stamp = lu.nextStamp()
	reachU := lu.reachU[:0]
	for _, k := range reach {
		v := wf[k]
		if v == 0 {
			continue
		}
		lu.spkNZ = append(lu.spkNZ, k)
		lu.spkVal = append(lu.spkVal, v)
		if lu.stepMk[k] != stamp {
			reachU = lu.dfs(uc.beg, uc.end, uc.idx, k, stamp, reachU)
		}
	}
	lu.reachU = reachU

	// Backward solve U·x̂ = z over the reached steps, consuming workF
	// (which restores its zeros) and scattering results straight into
	// position space while recording the pattern.
	xStamp := lu.nextStamp()
	xNZ := lu.xNZ[:0]
	for i := len(reachU) - 1; i >= 0; i-- {
		k := reachU[i]
		v := wf[k]
		if v == 0 {
			continue
		}
		wf[k] = 0
		v /= lu.uDiag[k]
		lo, hi := uc.beg[k], uc.end[k]
		vals := uc.val[lo:hi]
		for q, t := range uc.idx[lo:hi] {
			wf[t] -= vals[q] * v
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
	// The pattern is NOT sorted: it follows the deterministic DFS
	// discovery order, which every consumer (ratio test, basic-value
	// update) tolerates, and sorting it would cost more than any of
	// them saves.
	lu.xNZ = xNZ
	return xNZ
}

// btran solves Bᵀ·y = c. c is indexed by basis position and is
// DESTROYED; y is indexed by original row and fully overwritten. c and
// y must both have length m and must not alias.
func (lu *luBasis) btran(c, y []float64) {
	m := lu.ms
	// Key rows: c_N ← c_N − G_Nᵀ·c_K, leaving c_K in place for y_G.
	if lu.nk > 0 {
		for p, g := range lu.member[:lu.m] {
			if g >= 0 {
				c[p] -= c[lu.keyPos[g]]
			}
		}
	}
	// Forward solve Uᵀ·z = ĉ in slot space (Uᵀ is lower triangular in
	// U's order).
	w := lu.work
	uc := &lu.uc
	for _, k := range lu.seq[:m] {
		acc := c[lu.colOrder[k]]
		for q := uc.beg[k]; q < uc.end[k]; q++ {
			acc -= uc.val[q] * w[uc.idx[q]]
		}
		w[k] = acc / lu.uDiag[k]
	}
	// Row eta transposes, newest first: z_t −= r_t·z_k.
	for e := len(lu.rPiv) - 1; e >= 0; e-- {
		z := w[lu.rPiv[e]]
		if z == 0 {
			continue
		}
		for q := lu.rPtr[e]; q < lu.rPtr[e+1]; q++ {
			w[lu.rIdx[q]] -= lu.rVal[q] * z
		}
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
// pattern; the key-row phase mutates it in place and may extend the
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

	// Key rows: c_N ← c_N − G_Nᵀ·c_K; a key position's value reaches
	// its row's non-key members, which join the pattern. c_K stays for
	// y_G.
	nC := len(cNZ)
	if lu.nk > 0 {
		stamp := lu.nextStamp()
		for _, p := range cNZ {
			lu.posMk[p] = stamp
		}
		for _, p := range cNZ[:nC] {
			g := lu.keyAt[p]
			if g < 0 || c[p] == 0 {
				continue
			}
			v := c[p]
			for q := lu.mHead[g]; q >= 0; q = lu.mNext[q] {
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
	// postorder processes the earlier steps of U's order first. Key
	// positions have no step.
	stamp := lu.nextStamp()
	reachB := lu.reachB[:0]
	ut, uc := &lu.ut, &lu.uc
	for _, p := range cNZ {
		if c[p] != 0 {
			if k := lu.posStep[p]; k >= 0 && lu.stepMk[k] != stamp {
				reachB = lu.dfs(ut.beg, ut.end, ut.idx, k, stamp, reachB)
			}
		}
	}
	wb := lu.workB
	for i := len(reachB) - 1; i >= 0; i-- {
		k := reachB[i]
		acc := c[lu.colOrder[k]]
		lo, hi := uc.beg[k], uc.end[k]
		vals := uc.val[lo:hi]
		for q, t := range uc.idx[lo:hi] {
			acc -= vals[q] * wb[t]
		}
		wb[k] = acc / lu.uDiag[k]
	}
	// Row eta transposes, newest first: z_t −= r_t·z_k. The slots they
	// write join the seeds of the Lᵀ walk.
	for e := len(lu.rPiv) - 1; e >= 0; e-- {
		z := wb[lu.rPiv[e]]
		if z == 0 {
			continue
		}
		lo, hi := lu.rPtr[e], lu.rPtr[e+1]
		vals := lu.rVal[lo:hi]
		for q, t := range lu.rIdx[lo:hi] {
			wb[t] -= vals[q] * z
			if lu.stepMk[t] != stamp {
				lu.stepMk[t] = stamp
				reachB = append(reachB, t)
			}
		}
	}
	lu.reachB = reachB

	// Reachable steps of the transposed-L graph from z's pattern, then
	// the backward solve Lᵀ·ŷ = z scattered through the row permutation.
	// Reverse postorder processes larger steps first, and zs are wiped
	// as the solve consumes them, restoring workB's all-zero invariant.
	stamp = lu.nextStamp()
	reachC := lu.reachC[:0]
	for _, k := range reachB {
		if lu.stepMk[k] != stamp {
			reachC = lu.dfs(lu.ltPtr, lu.ltPtr[1:], lu.ltCols, k, stamp, reachC)
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
		if math.Abs(acc) < luTiny {
			acc = 0
		}
		r := lu.rowOf[k]
		y[r] = acc
		yNZ = append(yNZ, r)
	}

	// Key rows: y_G = c_K − A_Kᵀ·y_A, pushed from y_A's pattern through
	// the row-wise index, so only the keys it meets are touched. A key
	// whose terms cancel keeps roundoff, which is dropped like y_A's.
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
		kt := &lu.kt
		for _, r := range yNZ[:nA] {
			v := y[r]
			if v == 0 {
				continue
			}
			lo, hi := kt.beg[r], kt.end[r]
			vals := kt.val[lo:hi]
			for q, r0 := range kt.idx[lo:hi] {
				if lu.rowMark[r0] != mark {
					lu.rowMark[r0] = mark
					yNZ = append(yNZ, r0)
				}
				y[r0] -= vals[q] * v
			}
		}
		for _, r0 := range yNZ[nA:] {
			if math.Abs(y[r0]) < luTiny {
				y[r0] = 0
			}
		}
	}
	return cNZ, yNZ
}

// update makes working column enter basic at basis position p, given
// its FTRAN direction w = B⁻¹·a_enter with pattern wNZ, from the
// ftranSparse that also left the column's spike. updUnstable and
// updGrowth mean the update was refused: the caller must refactorize
// the post-pivot basis, and the factors may already be part-updated.
func (lu *luBasis) update(p, enter int, w []float64, wNZ []int32) updOutcome {
	piv := w[p]
	maxAbs := 0.0
	for _, i := range wNZ {
		maxAbs = max(maxAbs, math.Abs(w[i]))
	}
	if math.Abs(piv) < luUpdStabTol*maxAbs {
		return updUnstable
	}
	if len(lu.uc.idx)+len(lu.rIdx) > luGrowth*lu.size0+luGrowSlack*lu.ms {
		return updGrowth
	}
	pos := int32(p)
	if lu.nk > 0 {
		if g := lu.keyAt[p]; g >= 0 {
			if lu.mHead[g] < 0 {
				// Key swap: without other members the key row's A_K
				// column is the whole change. A column from outside the
				// row leaves it empty: the new basis is singular.
				if lu.keyOf[enter] != g {
					return updUnstable
				}
				lu.setKeyCol(g, int32(enter))
				lu.colAt[p] = int32(enter)
				cLUKeySwaps.Inc()
				return updOK
			}
			// Key change: relabel, then the pivot replaces the S column
			// the old key now has. The entering column's spike waits in
			// entNZ/entVal while relabel's replacements use the spike
			// buffers. Under the new key its S column is the old one,
			// less the new key's old S column when it joins row g: the
			// spike is the old one through the etas relabel added, plus
			// the column relabel negated.
			lu.entNZ, lu.spkNZ = lu.spkNZ, lu.entNZ
			lu.entVal, lu.spkVal = lu.spkVal, lu.entVal
			e0 := len(lu.rPiv)
			if !lu.relabel(g) {
				lu.ok = false
				return updUnstable
			}
			if lu.keyOf[enter] == g {
				lu.spikeSum(lu.entNZ, lu.entVal, e0, lu.posStep[p])
			} else {
				lu.spikeSum(lu.entNZ, lu.entVal, e0)
			}
			cLUKeyChanges.Inc()
		}
		if lu.member[p] >= 0 {
			lu.unlink(pos)
		}
		if g := lu.keyOf[enter]; g >= 0 {
			lu.link(pos, g)
		}
	}
	lu.colAt[p] = int32(enter)
	if !lu.replace(lu.posStep[p], piv) {
		lu.ok = false
		return updUnstable
	}
	return updOK
}

// relabel hands key g to one of its basic members — the one with the
// fewest entries, ties to the lower column — leaving B as it is. The member's S column, a_m − a_k off the key row,
// now stands for the old key column at the old key position: it is
// negated in place. Every other member's S column moves by it, which is
// a Forrest–Tomlin replacement whose spike is the sum of two U columns.
func (lu *luBasis) relabel(g int32) bool {
	p := lu.keyPos[g]
	p1 := lu.mHead[g]
	for q := lu.mNext[p1]; q >= 0; q = lu.mNext[q] {
		if fewerEntries(lu.aPtr, int(lu.colAt[q]), int(lu.colAt[p1])) {
			p1 = q
		}
	}
	k1 := lu.posStep[p1]
	uc := &lu.uc
	for q := uc.beg[k1]; q < uc.end[k1]; q++ {
		uc.val[q] = -uc.val[q]
	}
	lu.uDiag[k1] = -lu.uDiag[k1]
	for q := lu.mHead[g]; q >= 0; q = lu.mNext[q] {
		if q == p1 {
			continue
		}
		k := lu.posStep[q]
		lu.spikeSum(nil, nil, len(lu.rPiv), k, k1)
		if !lu.replace(k, 1) {
			return false
		}
	}
	lu.setKeyCol(g, lu.colAt[p1])
	lu.keyPos[g] = p1
	lu.keyAt[p1], lu.keyAt[p] = g, -1
	lu.unlink(p1)
	lu.link(p, g)
	lu.posStep[p1], lu.posStep[p] = -1, k1
	lu.colOrder[k1] = p
	return true
}

// spikeSum makes the spike the sparse vector nz/val run through the
// row etas from e0 on, plus U's columns cols, diagonals included.
func (lu *luBasis) spikeSum(nz []int32, val []float64, e0 int, cols ...int32) {
	wf, uc := lu.workF, &lu.uc
	stamp := lu.nextStamp()
	pat := lu.reachC[:0]
	for i, t := range nz {
		wf[t] = val[i]
		lu.stepMk[t] = stamp
		pat = append(pat, t)
	}
	for e := e0; e < len(lu.rPiv); e++ {
		k := lu.rPiv[e]
		acc := wf[k]
		for q := lu.rPtr[e]; q < lu.rPtr[e+1]; q++ {
			acc -= lu.rVal[q] * wf[lu.rIdx[q]]
		}
		wf[k] = acc
		if lu.stepMk[k] != stamp {
			lu.stepMk[k] = stamp
			pat = append(pat, k)
		}
	}
	for _, c := range cols {
		if lu.stepMk[c] != stamp {
			lu.stepMk[c] = stamp
			pat = append(pat, c)
		}
		wf[c] += lu.uDiag[c]
		for q := uc.beg[c]; q < uc.end[c]; q++ {
			t := uc.idx[q]
			if lu.stepMk[t] != stamp {
				lu.stepMk[t] = stamp
				pat = append(pat, t)
			}
			wf[t] += uc.val[q]
		}
	}
	lu.spkNZ, lu.spkVal = lu.spkNZ[:0], lu.spkVal[:0]
	for _, t := range pat {
		if v := wf[t]; v != 0 {
			lu.spkNZ = append(lu.spkNZ, t)
			lu.spkVal = append(lu.spkVal, v)
		}
		wf[t] = 0
	}
	lu.reachC = pat
}

// replace is the Forrest–Tomlin update of U: slot k's column becomes
// the spike (spkNZ/spkVal), and slot k moves to the end of U's order.
// Row k's entries in the other columns then lie below the diagonal;
// they are eliminated by the rows after k, rᵀ·U = (row k), and r is
// appended to R. ratio is the pivot of the replacement (the new
// column's S⁻¹ image at k), so the new diagonal must equal ratio times
// the old one; false means it does not (U is then part-updated).
func (lu *luBasis) replace(k int32, ratio float64) bool {
	uc, ut := &lu.uc, &lu.ut
	wb, wf := lu.workB, lu.workF

	// Row k leaves the other columns; its entries seed rᵀ's solve,
	// which reaches only slots after k in the order.
	stamp := lu.nextStamp()
	reach := lu.reachB[:0]
	row := ut.idx[ut.beg[k]:ut.end[k]]
	for _, j := range row {
		wb[j] = uc.remove(j, k)
	}
	lu.uNNZ -= len(row)
	for _, j := range row {
		if lu.stepMk[j] != stamp {
			reach = lu.dfs(ut.beg, ut.end, ut.idx, j, stamp, reach)
		}
	}
	ut.end[k] = ut.beg[k]
	for i := len(reach) - 1; i >= 0; i-- {
		j := reach[i]
		acc := wb[j]
		lo, hi := uc.beg[j], uc.end[j]
		vals := uc.val[lo:hi]
		for q, t := range uc.idx[lo:hi] {
			acc -= vals[q] * wb[t]
		}
		wb[j] = acc / lu.uDiag[j]
	}
	lu.reachB = reach

	// The new diagonal: the spike's entry at k less r·spike.
	for i, t := range lu.spkNZ {
		wf[t] = lu.spkVal[i]
	}
	d := wf[k]
	for _, j := range reach {
		if r := wb[j]; r != 0 {
			d -= r * wf[j]
			lu.rIdx = append(lu.rIdx, j)
			lu.rVal = append(lu.rVal, r)
			wb[j] = 0
		}
	}
	if n := int32(len(lu.rIdx)); n > lu.rPtr[len(lu.rPtr)-1] {
		lu.rPiv = append(lu.rPiv, k)
		lu.rPtr = append(lu.rPtr, n)
	}
	want := ratio * lu.uDiag[k]
	if d == 0 || math.Abs(d-want) > luFTStabTol*math.Abs(want) {
		for _, t := range lu.spkNZ {
			wf[t] = 0
		}
		return false
	}

	// Column k: the old entries leave their rows' patterns and the
	// spike's other entries take their place.
	for _, t := range uc.idx[uc.beg[k]:uc.end[k]] {
		ut.remove(t, k)
	}
	lu.uNNZ -= int(uc.end[k] - uc.beg[k])
	uc.end[k] = uc.beg[k]
	for i, t := range lu.spkNZ {
		wf[t] = 0
		if t != k {
			uc.push(k, t, lu.spkVal[i])
			ut.push(t, k, 0)
			lu.uNNZ++
		}
	}
	lu.uDiag[k] = d
	i := slices.Index(lu.seq, k)
	copy(lu.seq[i:], lu.seq[i+1:])
	lu.seq[len(lu.seq)-1] = k
	return true
}
