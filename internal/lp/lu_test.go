package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randBasisCSC builds a random sparse m×m matrix in CSC form with a
// strong diagonal (so it is comfortably nonsingular) and off-diagonal
// density as given. Column j is rowIdx/vals[colPtr[j]:colPtr[j+1]],
// row-sorted — the same layout the simplex hands to luBasis.
func randBasisCSC(rng *rand.Rand, m int, density float64) (colPtr, rowIdx []int32, vals []float64) {
	colPtr = make([]int32, m+1)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			v := 0.0
			if i == j {
				v = 2 + 4*rng.Float64()
			} else if rng.Float64() < density {
				v = rng.NormFloat64()
			}
			if v != 0 {
				rowIdx = append(rowIdx, int32(i))
				vals = append(vals, v)
			}
		}
		colPtr[j+1] = int32(len(rowIdx))
	}
	return colPtr, rowIdx, vals
}

// identityBasic returns basic[i] = i, making basis column i the
// working-matrix column i.
func identityBasic(m int) []int {
	basic := make([]int, m)
	for i := range basic {
		basic[i] = i
	}
	return basic
}

// matVec computes y = B·x for the CSC matrix restricted to the basic
// columns (basis column i = working column basic[i]).
func matVec(colPtr, rowIdx []int32, vals []float64, basic []int, x []float64) []float64 {
	y := make([]float64, len(basic))
	for i, j := range basic {
		if x[i] == 0 {
			continue
		}
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			y[rowIdx[q]] += vals[q] * x[i]
		}
	}
	return y
}

// matTVec computes y = Bᵀ·x likewise.
func matTVec(colPtr, rowIdx []int32, vals []float64, basic []int, x []float64) []float64 {
	y := make([]float64, len(basic))
	for i, j := range basic {
		for q := colPtr[j]; q < colPtr[j+1]; q++ {
			y[i] += vals[q] * x[rowIdx[q]]
		}
	}
	return y
}

func maxAbsDiff(a, b []float64) float64 {
	d := 0.0
	for i := range a {
		if v := math.Abs(a[i] - b[i]); v > d {
			d = v
		}
	}
	return d
}

// TestLUFactorSolve factors random bases across sizes and densities and
// checks FTRAN/BTRAN against the definition: B·(B⁻¹b) = b and
// Bᵀ·(B⁻ᵀc) = c to tight tolerance.
func TestLUFactorSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 2, 5, 20, 60, 150} {
		for _, density := range []float64{0.02, 0.1, 0.5} {
			colPtr, rowIdx, vals := randBasisCSC(rng, m, density)
			basic := identityBasic(m)
			lu := new(luBasis)
			if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
				t.Fatalf("m=%d density=%v: factor reported singular", m, density)
			}
			b := make([]float64, m)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, m)
			lu.ftran(append([]float64(nil), b...), x)
			if d := maxAbsDiff(matVec(colPtr, rowIdx, vals, basic, x), b); d > 1e-8 {
				t.Errorf("m=%d density=%v: FTRAN residual %g", m, density, d)
			}
			c := make([]float64, m)
			for i := range c {
				c[i] = rng.NormFloat64()
			}
			y := make([]float64, m)
			lu.btran(append([]float64(nil), c...), y)
			if d := maxAbsDiff(matTVec(colPtr, rowIdx, vals, basic, y), c); d > 1e-8 {
				t.Errorf("m=%d density=%v: BTRAN residual %g", m, density, d)
			}
		}
	}
}

// TestLUSingular feeds bases with an exactly dependent column and a zero
// column; factor must report failure rather than divide by (near) zero.
func TestLUSingular(t *testing.T) {
	// Column 2 = column 0 + column 1.
	colPtr := []int32{0, 2, 2, 4}
	rowIdx := []int32{0, 1, 0, 1}
	vals := []float64{1, 2, 1, 2}
	lu := new(luBasis)
	if lu.factor(3, colPtr, rowIdx, vals, identityBasic(3), nil) {
		t.Error("factor accepted a basis with an empty column")
	}
	colPtr = []int32{0, 2, 4, 6}
	rowIdx = []int32{0, 1, 1, 2, 0, 2}
	vals = []float64{1, 1, 1, 1, 1, 1}
	// Rows: [1 0 1; 1 1 0; 0 1 1] is nonsingular; flip a sign to make
	// column 2 the sum of the others.
	vals[4], vals[5] = -1, 1
	// cols: (1,1,0),(0,1,1),(-1,0,1): col0 - col1 + col2 = 0 → singular.
	if lu.factor(3, colPtr, rowIdx, vals, identityBasic(3), nil) {
		t.Error("factor accepted a numerically singular basis")
	}
	if lu.ok {
		t.Error("lu.ok set after a failed factorization")
	}
}

// TestLUFtranSparseMatchesDense drives the hypersparse FTRAN through a
// sequence of sparse right-hand sides on one factorization, checking
// value-for-value agreement with the dense solve and the pattern
// contract: every nonzero of x lies inside the returned pattern, and
// clearing just that pattern restores the all-zero state the next call
// relies on.
func TestLUFtranSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []int{5, 40, 120} {
		colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.06)
		basic := identityBasic(m)
		lu := new(luBasis)
		if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
			t.Fatalf("m=%d: factor reported singular", m)
		}
		x := make([]float64, m)
		var prev []int32
		for trial := 0; trial < 20; trial++ {
			// Sparse rhs as a row/value list, like a CSC column slice.
			nnz := 1 + rng.Intn(3)
			rows := make([]int32, 0, nnz)
			seen := map[int32]bool{}
			for len(rows) < nnz {
				r := int32(rng.Intn(m))
				if !seen[r] {
					seen[r] = true
					rows = append(rows, r)
				}
			}
			vv := make([]float64, len(rows))
			dense := make([]float64, m)
			for i, r := range rows {
				vv[i] = rng.NormFloat64()
				dense[r] = vv[i]
			}
			want := make([]float64, m)
			lu.ftran(append([]float64(nil), dense...), want)

			for _, p := range prev {
				x[p] = 0
			}
			pattern := lu.ftranSparse(rows, vv, x)
			inPat := make([]bool, m)
			for _, p := range pattern {
				if inPat[p] {
					t.Fatalf("m=%d trial %d: duplicate position %d in pattern", m, trial, p)
				}
				inPat[p] = true
			}
			for i := 0; i < m; i++ {
				if math.Abs(x[i]-want[i]) > 1e-9 {
					t.Fatalf("m=%d trial %d: x[%d] = %g, dense FTRAN %g", m, trial, i, x[i], want[i])
				}
				if x[i] != 0 && !inPat[i] {
					t.Fatalf("m=%d trial %d: nonzero x[%d] outside returned pattern", m, trial, i)
				}
			}
			prev = append(prev[:0], pattern...)
		}
	}
}

// TestLUBtranSparseMatchesDense does the same for the hypersparse BTRAN,
// including its buffer contracts: c is restored by re-zeroing the
// returned cNZ2, and y's pattern storage rides the yPrev backing.
func TestLUBtranSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, m := range []int{5, 40, 120} {
		colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.06)
		basic := identityBasic(m)
		lu := new(luBasis)
		if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
			t.Fatalf("m=%d: factor reported singular", m)
		}
		c := make([]float64, m)
		y := make([]float64, m)
		var cNZ, yPat []int32
		for trial := 0; trial < 20; trial++ {
			nnz := 1 + rng.Intn(3)
			cNZ = cNZ[:0]
			seen := map[int32]bool{}
			denseC := make([]float64, m)
			for len(cNZ) < nnz {
				p := int32(rng.Intn(m))
				if !seen[p] {
					seen[p] = true
					c[p] = rng.NormFloat64()
					denseC[p] = c[p]
					cNZ = append(cNZ, p)
				}
			}
			want := make([]float64, m)
			lu.btran(denseC, want)

			cNZ2, yNZ := lu.btranSparse(c, cNZ, y, yPat)
			for i := 0; i < m; i++ {
				if math.Abs(y[i]-want[i]) > 1e-9 {
					t.Fatalf("m=%d trial %d: y[%d] = %g, dense BTRAN %g", m, trial, i, y[i], want[i])
				}
			}
			inPat := make([]bool, m)
			for _, r := range yNZ {
				inPat[r] = true
			}
			for i := 0; i < m; i++ {
				if y[i] != 0 && !inPat[i] {
					t.Fatalf("m=%d trial %d: nonzero y[%d] outside returned pattern", m, trial, i)
				}
			}
			for _, p := range cNZ2 {
				c[p] = 0
			}
			for _, v := range c {
				if v != 0 {
					t.Fatalf("m=%d trial %d: c not restored to zero by cNZ2", m, trial)
				}
			}
			yPat = yNZ
		}
	}
}

// TestLUUpdates replaces basis columns one at a time through update
// (refactoring whenever an update is refused, exactly like basisPivot)
// and checks after every pivot that FTRAN and BTRAN through the updated
// factors agree with a fresh factorization of the updated basis.
func TestLUUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := 50
	n := 120 // extra columns to pivot in
	colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.08)
	// Append n-m random sparse non-basis columns.
	for j := m; j < n; j++ {
		nnz := 1 + rng.Intn(4)
		rowsSeen := map[int32]bool{}
		for c := 0; c < nnz; c++ {
			r := int32(rng.Intn(m))
			if rowsSeen[r] {
				continue
			}
			rowsSeen[r] = true
		}
		// CSC wants sorted rows.
		for r := int32(0); r < int32(m); r++ {
			if rowsSeen[r] {
				rowIdx = append(rowIdx, r)
				vals = append(vals, 1+rng.Float64())
			}
		}
		colPtr = append(colPtr, int32(len(rowIdx)))
	}
	basic := identityBasic(m)
	lu := new(luBasis)
	if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
		t.Fatal("initial factor reported singular")
	}

	updates := 0
	for pivot := 0; pivot < 40; pivot++ {
		enter := m + rng.Intn(n-m)
		if slices.Contains(basic, enter) {
			continue
		}
		// FTRAN the entering column to get the direction and the spike.
		w := make([]float64, m)
		wNZ := slices.Clone(lu.ftranSparse(rowIdx[colPtr[enter]:colPtr[enter+1]], vals[colPtr[enter]:colPtr[enter+1]], w))
		// Pick the largest-magnitude direction entry as the leaving row
		// (a stable pivot, as the ratio test would supply).
		leave, best := -1, 0.0
		for i, v := range w {
			if a := math.Abs(v); a > best {
				leave, best = i, a
			}
		}
		if leave < 0 || best < 1e-9 {
			continue // direction vanished; skip this candidate
		}
		basic[leave] = enter
		if lu.update(leave, enter, w, wNZ) != updOK {
			// Refused update: refactor the post-pivot basis, as
			// simplex.basisPivot does.
			if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
				t.Fatalf("pivot %d: refactorization reported singular", pivot)
			}
		} else {
			updates++
		}

		fresh := new(luBasis)
		if !fresh.factor(m, colPtr, rowIdx, vals, basic, nil) {
			t.Fatalf("pivot %d: reference factor reported singular", pivot)
		}
		b := make([]float64, m)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, m)
		want := make([]float64, m)
		lu.ftran(append([]float64(nil), b...), got)
		fresh.ftran(append([]float64(nil), b...), want)
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("pivot %d: updated FTRAN differs from fresh factors by %g", pivot, d)
		}
		lu.btran(append([]float64(nil), b...), got)
		fresh.btran(append([]float64(nil), b...), want)
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("pivot %d: updated BTRAN differs from fresh factors by %g", pivot, d)
		}
		// The sparse BTRAN of a unit vector — a dual pivot row — visits
		// only the slots and row etas its right-hand side reaches; it
		// must still match the dense pass over the same factors, for
		// every position.
		for r := 0; r < m; r++ {
			unit := make([]float64, m)
			unit[r] = 1
			lu.btran(append([]float64(nil), unit...), want)
			clear(got)
			lu.btranSparse(unit, []int32{int32(r)}, got, nil)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("pivot %d: sparse BTRAN of e_%d differs from the dense pass by %g", pivot, r, d)
			}
		}
	}
	if updates == 0 {
		t.Fatal("every update was refused; the test checked only fresh factors")
	}
}

// TestLUStampWraparound forces the shared visit stamp to the int32
// limit and checks that solves stay correct across the wraparound (the
// guard must clear every stamp array).
func TestLUStampWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	m := 30
	colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.1)
	basic := identityBasic(m)
	lu := new(luBasis)
	if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
		t.Fatal("factor reported singular")
	}
	lu.stamp = math.MaxInt32 - 3
	x := make([]float64, m)
	var prev []int32
	for trial := 0; trial < 8; trial++ {
		r := []int32{int32(rng.Intn(m))}
		v := []float64{1 + rng.Float64()}
		dense := make([]float64, m)
		dense[r[0]] = v[0]
		want := make([]float64, m)
		lu.ftran(dense, want)
		for _, p := range prev {
			x[p] = 0
		}
		prev = append(prev[:0], lu.ftranSparse(r, v, x)...)
		if d := maxAbsDiff(x, want); d > 1e-9 {
			t.Fatalf("trial %d (stamp near wraparound): sparse FTRAN differs by %g", trial, d)
		}
	}
}

// refPostorder is the recursive reference for luBasis.dfs: from each
// start not yet seen, visit successors adj[beg[s]:end[s]] in stored
// order and emit a step after all of them.
func refPostorder(beg, end, adj, starts []int32, m int) []int32 {
	seen := make([]bool, m)
	var out []int32
	var visit func(s int32)
	visit = func(s int32) {
		seen[s] = true
		for _, t := range adj[beg[s]:end[s]] {
			if !seen[t] {
				visit(t)
			}
		}
		out = append(out, s)
	}
	for _, s := range starts {
		if !seen[s] {
			visit(s)
		}
	}
	return out
}

// TestLUDFSPostorder pins the walk order of the sparse solves: dfs must
// return exactly the recursive postorder, over several starts sharing
// one stamp, on all four solve graphs of a factor carrying updates. The
// solves accumulate in the reverse of this order, so a different walk
// changes their floating-point results even where the solve-vs-dense
// tolerances above cannot see it.
func TestLUDFSPostorder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := 60
	colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.06)
	// Five entering columns, each a unit vector plus a second entry.
	for e := 0; e < 5; e++ {
		r1, r2 := int32(rng.Intn(m)), int32(rng.Intn(m))
		if r1 == r2 {
			rowIdx = append(rowIdx, r1)
			vals = append(vals, 2+rng.Float64())
		} else {
			rowIdx = append(rowIdx, min(r1, r2), max(r1, r2))
			vals = append(vals, 1+rng.Float64(), 1+rng.Float64())
		}
		colPtr = append(colPtr, int32(len(rowIdx)))
	}
	basic := identityBasic(m)
	lu := new(luBasis)
	if !lu.factor(m, colPtr, rowIdx, vals, basic, nil) {
		t.Fatal("factor reported singular")
	}
	for e := 0; e < 5; e++ {
		enter := m + e
		w := make([]float64, m)
		lo, hi := colPtr[enter], colPtr[enter+1]
		wNZ := slices.Clone(lu.ftranSparse(rowIdx[lo:hi], vals[lo:hi], w))
		p := 0
		for i, v := range w {
			if math.Abs(v) > math.Abs(w[p]) {
				p = i
			}
		}
		if lu.update(p, enter, w, wNZ) != updOK {
			t.Fatalf("update %d refused", e)
		}
		basic[p] = enter
	}
	if len(lu.rPiv) == 0 {
		t.Fatal("no row eta after five updates; the U graphs are the fresh factor's")
	}
	for idx, r := range lu.lRows {
		if lu.lSteps[idx] != lu.pinv[r] {
			t.Fatalf("lSteps[%d] = %d, want pinv[%d] = %d", idx, lu.lSteps[idx], r, lu.pinv[r])
		}
	}
	graphs := []struct {
		name          string
		beg, end, adj []int32
	}{
		{"L", lu.lPtr, lu.lPtr[1:], lu.lSteps},
		{"U", lu.uc.beg, lu.uc.end, lu.uc.idx},
		{"Uᵀ", lu.ut.beg, lu.ut.end, lu.ut.idx},
		{"Lᵀ", lu.ltPtr, lu.ltPtr[1:], lu.ltCols},
	}
	for _, g := range graphs {
		branching := 0
		for s := 0; s < m; s++ {
			if g.end[s]-g.beg[s] > 1 {
				branching++
			}
		}
		if branching == 0 {
			t.Fatalf("%s graph has no step with two successors; the order check is vacuous", g.name)
		}
		for trial := 0; trial < 50; trial++ {
			starts := make([]int32, 1+rng.Intn(4))
			for i := range starts {
				starts[i] = int32(rng.Intn(m))
			}
			stamp := lu.nextStamp()
			var got []int32
			for _, s := range starts {
				if lu.stepMk[s] != stamp {
					got = lu.dfs(g.beg, g.end, g.adj, s, stamp, got)
				}
			}
			if want := refPostorder(g.beg, g.end, g.adj, starts, m); !slices.Equal(got, want) {
				t.Fatalf("%s graph from %v: dfs = %v, want %v", g.name, starts, got, want)
			}
		}
	}
}

// BenchmarkLUSparseSolves times one hypersparse FTRAN of each basis
// column and one BTRAN of each unit vector against a fixed factor whose
// columns average one off-diagonal entry, so most reachability walks
// visit a few steps and their per-call cost shows.
func BenchmarkLUSparseSolves(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	m := 1500
	colPtr, rowIdx, vals := randBasisCSC(rng, m, 1/float64(m))
	lu := new(luBasis)
	if !lu.factor(m, colPtr, rowIdx, vals, identityBasic(m), nil) {
		b.Fatal("factor reported singular")
	}
	x := make([]float64, m)
	y := make([]float64, m)
	c := make([]float64, m)
	var xNZ, yNZ, cNZ []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < m; r++ {
			for _, p := range xNZ {
				x[p] = 0
			}
			lo, hi := colPtr[r], colPtr[r+1]
			xNZ = lu.ftranSparse(rowIdx[lo:hi], vals[lo:hi], x)
			c[r] = 1
			cNZ, yNZ = lu.btranSparse(c, append(cNZ[:0], int32(r)), y, yNZ)
			for _, p := range cNZ {
				c[p] = 0
			}
		}
	}
}

// keyedMatrix is a random RL-shaped working matrix laid out as the
// simplex lays one out: nKey serve rows (rows 0..nKey-1), then nCap
// capacity rows. Each serve row has a set of 2–4 path columns, +1 on
// the row and capacity coefficients in [0.01, 0.5] on 1–4 capacity
// rows; then come bandwidth columns with −1 on up to three capacity
// rows each, then one +1 slack (or artificial) per row. Rows are sorted
// within each column.
type keyedMatrix struct {
	m, nKey        int
	colPtr, rowIdx []int32
	vals           []float64
	sets           [][]int // set g: the path columns of serve row g
	bw             []int   // bandwidth columns
	slack          []int   // slack[i]: row i's slack column
	keys           keyRows
}

func newKeyedMatrix(rng *rand.Rand, nKey, nCap int) *keyedMatrix {
	km := &keyedMatrix{m: nKey + nCap, nKey: nKey, colPtr: []int32{0}}
	addCol := func(entries map[int32]float64) int {
		rows := make([]int32, 0, len(entries))
		for r := range entries {
			rows = append(rows, r)
		}
		slices.Sort(rows)
		for _, r := range rows {
			km.rowIdx = append(km.rowIdx, r)
			km.vals = append(km.vals, entries[r])
		}
		km.colPtr = append(km.colPtr, int32(len(km.rowIdx)))
		return len(km.colPtr) - 2
	}
	capRow := func() int32 { return int32(nKey + rng.Intn(nCap)) }
	for g := 0; g < nKey; g++ {
		var set []int
		for range 2 + rng.Intn(3) {
			entries := map[int32]float64{int32(g): 1}
			for range 1 + rng.Intn(4) {
				entries[capRow()] = 0.01 + 0.49*rng.Float64()
			}
			set = append(set, addCol(entries))
		}
		km.sets = append(km.sets, set)
	}
	for range max(1, nCap/3) {
		entries := map[int32]float64{}
		for range 1 + rng.Intn(3) {
			entries[capRow()] = -1
		}
		km.bw = append(km.bw, addCol(entries))
	}
	for i := 0; i < km.m; i++ {
		km.slack = append(km.slack, addCol(map[int32]float64{int32(i): 1}))
	}
	km.keys.find(km.m, km.colPtr, km.rowIdx, km.vals)
	return km
}

// dense returns the basis matrix of basic, row-major.
func (km *keyedMatrix) dense(basic []int) [][]float64 {
	B := make([][]float64, km.m)
	for i := range B {
		B[i] = make([]float64, km.m)
	}
	for p, j := range basic {
		for q := km.colPtr[j]; q < km.colPtr[j+1]; q++ {
			B[km.rowIdx[q]][p] = km.vals[q]
		}
	}
	return B
}

// denseSolve solves A·x = b by Gaussian elimination with partial
// pivoting, or reports A singular.
func denseSolve(A [][]float64, b []float64) ([]float64, bool) {
	n := len(b)
	M := make([][]float64, n)
	for i := range M {
		M[i] = append(append([]float64(nil), A[i]...), b[i])
	}
	for k := 0; k < n; k++ {
		p := k
		for i := k + 1; i < n; i++ {
			if math.Abs(M[i][k]) > math.Abs(M[p][k]) {
				p = i
			}
		}
		if math.Abs(M[p][k]) < 1e-12 {
			return nil, false
		}
		M[k], M[p] = M[p], M[k]
		for i := k + 1; i < n; i++ {
			f := M[i][k] / M[k][k]
			for j := k; j <= n; j++ {
				M[i][j] -= f * M[k][j]
			}
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		v := M[i][n]
		for j := i + 1; j < n; j++ {
			v -= M[i][j] * x[j]
		}
		x[i] = v / M[i][i]
	}
	return x, true
}

func transpose(A [][]float64) [][]float64 {
	T := make([][]float64, len(A))
	for i := range T {
		T[i] = make([]float64, len(A))
		for j := range A {
			T[i][j] = A[j][i]
		}
	}
	return T
}

// randomKeyedBasis picks a nonsingular basic set: per serve row its
// slack or one of its paths, and per capacity row its slack, with
// extra paths and bandwidth columns swapped in for some capacity
// slacks; three names a set that must hold three basic paths (-1:
// none).
func (km *keyedMatrix) randomKeyedBasis(rng *rand.Rand, three int) []int {
	for {
		basic := make([]int, km.m)
		inBasis := map[int]bool{}
		for g, set := range km.sets {
			basic[g] = km.slack[g]
			if rng.Intn(4) > 0 || g == three {
				basic[g] = set[rng.Intn(len(set))]
			}
			inBasis[basic[g]] = true
		}
		var extra []int
		if three >= 0 {
			for _, j := range km.sets[three] {
				if !inBasis[j] && len(extra) < 2 {
					extra = append(extra, j)
				}
			}
		}
		for range (km.m - km.nKey) / 3 {
			var j int
			if rng.Intn(2) == 0 {
				set := km.sets[rng.Intn(len(km.sets))]
				j = set[rng.Intn(len(set))]
			} else {
				j = km.bw[rng.Intn(len(km.bw))]
			}
			if !inBasis[j] && !slices.Contains(extra, j) {
				extra = append(extra, j)
			}
		}
		for i := km.nKey; i < km.m; i++ {
			basic[i] = km.slack[i]
		}
		for k, p := range rng.Perm(km.m - km.nKey)[:len(extra)] {
			basic[km.nKey+p] = extra[k]
		}
		if _, ok := denseSolve(km.dense(basic), make([]float64, km.m)); ok {
			return basic
		}
	}
}

// checkKeyedSolves holds every solve of lu against dense solves with
// the basis matrix of basic, to 1e-9 relative.
func (km *keyedMatrix) checkKeyedSolves(t *testing.T, rng *rand.Rand, lu *luBasis, basic []int, what string) {
	t.Helper()
	m := km.m
	B := km.dense(basic)
	BT := transpose(B)
	near := func(got, want []float64, solve string) {
		t.Helper()
		scale := 1.0
		for _, v := range want {
			scale = max(scale, math.Abs(v))
		}
		if d := maxAbsDiff(got, want); d > 1e-9*scale {
			t.Fatalf("%s: %s differs from the dense solve by %g (scale %g)", what, solve, d, scale)
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	want, ok := denseSolve(B, b)
	if !ok {
		t.Fatalf("%s: reference basis singular", what)
	}
	got := make([]float64, m)
	lu.ftran(append([]float64(nil), b...), got)
	near(got, want, "ftran")
	want, _ = denseSolve(BT, b)
	lu.btran(append([]float64(nil), b...), got)
	near(got, want, "btran")

	// ftranSparse of every column (basic or not), btranSparse of every
	// unit vector, each through its buffer's zero-outside-pattern
	// invariant.
	x := make([]float64, m)
	var xNZ []int32
	for j := 0; j+1 < len(km.colPtr); j++ {
		for _, p := range xNZ {
			x[p] = 0
		}
		lo, hi := km.colPtr[j], km.colPtr[j+1]
		xNZ = lu.ftranSparse(km.rowIdx[lo:hi], km.vals[lo:hi], x)
		a := make([]float64, m)
		for q := lo; q < hi; q++ {
			a[km.rowIdx[q]] = km.vals[q]
		}
		want, _ := denseSolve(B, a)
		near(x, want, fmt.Sprintf("ftranSparse of column %d", j))
		for p, v := range x {
			if v != 0 && !slices.Contains(xNZ, int32(p)) {
				t.Fatalf("%s: ftranSparse of column %d: position %d nonzero outside the pattern", what, j, p)
			}
		}
	}
	c := make([]float64, m)
	y := make([]float64, m)
	var cNZ, yNZ []int32
	for p := 0; p < m; p++ {
		c[p] = 1
		cNZ, yNZ = lu.btranSparse(c, append(cNZ[:0], int32(p)), y, yNZ)
		for _, q := range cNZ {
			c[q] = 0
		}
		e := make([]float64, m)
		e[p] = 1
		want, _ := denseSolve(BT, e)
		near(y, want, fmt.Sprintf("btranSparse of e_%d", p))
		for r, v := range y {
			if v != 0 && !slices.Contains(yNZ, int32(r)) {
				t.Fatalf("%s: btranSparse of e_%d: row %d nonzero outside the pattern", what, p, r)
			}
		}
	}
}

// TestLUKeyRows factors random RL-shaped bases with key rows and holds
// FTRAN and BTRAN, dense and sparse, against dense solves: fresh, and
// after 64 pivots absorbed as updates (refactoring when an update is
// refused, as the simplex does).
func TestLUKeyRows(t *testing.T) {
	for _, tc := range []struct {
		name       string
		nKey, nCap int
		basis      string
	}{
		{"slack-keys", 30, 20, "slack"},
		{"random", 30, 20, "random"},
		{"random-wide", 60, 12, "random"},
		{"three-members", 30, 20, "three"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				rng := rand.New(rand.NewSource(seed))
				km := newKeyedMatrix(rng, tc.nKey, tc.nCap)
				if len(km.keys.row) != tc.nKey {
					t.Fatalf("found %d key rows, want the %d serve rows", len(km.keys.row), tc.nKey)
				}
				var basic []int
				switch tc.basis {
				case "slack":
					basic = slices.Clone(km.slack)
				case "three":
					g := slices.IndexFunc(km.sets, func(set []int) bool { return len(set) >= 3 })
					basic = km.randomKeyedBasis(rng, g)
				default:
					basic = km.randomKeyedBasis(rng, -1)
				}
				lu := new(luBasis)
				if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
					t.Fatalf("seed %d: factor reported singular", seed)
				}
				if lu.nk != tc.nKey || lu.ms != tc.nCap {
					t.Fatalf("seed %d: %d keys and %d factored rows, want %d and %d", seed, lu.nk, lu.ms, tc.nKey, tc.nCap)
				}
				if tc.basis == "slack" && (len(lu.lVals) != 0 || lu.uNNZ != 0) {
					t.Fatalf("seed %d: the slack basis factored S with fill, want S = I", seed)
				}
				km.checkKeyedSolves(t, rng, lu, basic, fmt.Sprintf("seed %d fresh", seed))

				updates, since := 0, 0
				for pivot := 0; pivot < 64; pivot++ {
					enter := rng.Intn(len(km.colPtr) - 1)
					if slices.Contains(basic, enter) {
						continue
					}
					w := make([]float64, km.m)
					lo, hi := km.colPtr[enter], km.colPtr[enter+1]
					wNZ := slices.Clone(lu.ftranSparse(km.rowIdx[lo:hi], km.vals[lo:hi], w))
					leave := -1
					for _, p := range wNZ {
						if leave < 0 || math.Abs(w[p]) > math.Abs(w[leave]) {
							leave = int(p)
						}
					}
					if leave < 0 || math.Abs(w[leave]) < 1e-6 {
						continue
					}
					basic[leave] = enter
					if lu.update(leave, enter, w, wNZ) == updOK {
						updates++
						since++
					} else if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
						t.Fatalf("seed %d pivot %d: refactorization reported singular", seed, pivot)
					} else {
						since = 0
					}
				}
				if since == 0 {
					t.Fatalf("seed %d: no update since the last factor, of %d", seed, updates)
				}
				km.checkKeyedSolves(t, rng, lu, basic, fmt.Sprintf("seed %d after %d updates", seed, updates))
			}
		})
	}
}

// TestLUKeyRowEmptySet: a basis in which some key row has no basic
// member is singular (the row is zero in B), and factor must say so.
// SeedBasis refuses such a seed, and the solve from the refused handle
// is the cold solve.
func TestLUKeyRowEmptySet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	km := newKeyedMatrix(rng, 30, 20)
	basic := km.randomKeyedBasis(rng, -1)
	// Replace serve row 0's basic member by a nonbasic bandwidth column.
	for _, j := range km.bw {
		if !slices.Contains(basic, j) {
			basic[slices.IndexFunc(basic, func(b int) bool { return km.keys.of[b] == 0 })] = j
			break
		}
	}
	if slices.ContainsFunc(basic, func(b int) bool { return km.keys.of[b] == 0 }) {
		t.Fatal("no nonbasic bandwidth column to empty key row 0 with")
	}
	lu := new(luBasis)
	if lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) || lu.ok {
		t.Fatal("factor accepted a basis whose key row 0 has no basic member")
	}

	// An LP with accept rows Σ_j x_gj ≤ 1 and capacity rows, padded past
	// luAutoRows: seeding a capacity-only column into accept row 0's
	// slack leaves row 0 without a basic member.
	build := func() (*Problem, int) {
		d := newDraft(t, Maximize)
		var cols []int
		for g := 0; g < luAutoRows; g++ {
			row := d.row(LE, 1, "accept")
			for k := 0; k < 3; k++ {
				j := d.variable(float64(1+(g+k)%5), 0, 1, "x")
				d.term(row, j, 1)
				cols = append(cols, j)
			}
		}
		bw := d.variable(-1, 0, 50, "c")
		for c := 0; c < 8; c++ {
			row := d.row(LE, 0, "cap")
			d.term(row, bw, -1)
			for k := c; k < len(cols); k += 8 {
				d.term(row, cols[k], 0.5)
			}
		}
		return d.build(), bw
	}
	p, bw := build()
	seed := p.SeedBasis([]int{0}, []int{bw})
	if seed.Valid() {
		t.Fatal("SeedBasis accepted a seed that empties key row 0")
	}
	got, err := p.Solve(Options{Warm: seed})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := build()
	want, err := q.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusOptimal || got.Warm || got.Objective != want.Objective || got.Iters != want.Iters {
		t.Fatalf("solve from the refused seed: %v %v warm %v after %d iterations, want the cold %v %v after %d",
			got.Status, got.Objective, got.Warm, got.Iters, want.Status, want.Objective, want.Iters)
	}
}

// TestKeyRowsFind pins the key-row rule on a small layout: a row is a
// key row when all its coefficients are +1 and none of its columns is
// in an earlier key row.
func TestKeyRowsFind(t *testing.T) {
	// Columns (rows they meet, all +1 unless noted):
	//   0: r0 r2   1: r0   2: r1 (2)   3: r2 r3   4: r3   5: r4 (−1)
	// plus one +1 slack per row.
	cols := [][]struct {
		r int32
		v float64
	}{
		{{0, 1}, {2, 1}}, {{0, 1}}, {{1, 2}}, {{2, 1}, {3, 1}}, {{3, 1}}, {{4, -1}},
		{{0, 1}}, {{1, 1}}, {{2, 1}}, {{3, 1}}, {{4, 1}},
	}
	colPtr := []int32{0}
	var rowIdx []int32
	var vals []float64
	for _, c := range cols {
		for _, e := range c {
			rowIdx = append(rowIdx, e.r)
			vals = append(vals, e.v)
		}
		colPtr = append(colPtr, int32(len(rowIdx)))
	}
	var k keyRows
	k.find(5, colPtr, rowIdx, vals)
	// r0: key. r1: a 2. r2: shares column 0 with r0. r3: key (column 3
	// is in no earlier KEY row). r4: a −1.
	if want := []int32{0, 3}; !slices.Equal(k.row, want) {
		t.Fatalf("key rows %v, want %v", k.row, want)
	}
	wantOf := []int32{0, 0, -1, 1, 1, -1, 0, -1, -1, 1, -1}
	if !slices.Equal(k.of, wantOf) {
		t.Fatalf("column key rows %v, want %v", k.of, wantOf)
	}
	if want := []int32{0, -1, -1, 1, -1}; !slices.Equal(k.onRow, want) {
		t.Fatalf("row key indices %v, want %v", k.onRow, want)
	}
}

// BenchmarkLUKeyRows times one factorization, one sparse FTRAN per
// basis column and one sparse BTRAN per unit vector on an RL-shaped
// basis: 1000 key rows with 3 members each and 456 capacity rows.
func BenchmarkLUKeyRows(b *testing.B) {
	km, basic := rlShapedBasis(b)
	lu := new(luBasis)
	x := make([]float64, km.m)
	y := make([]float64, km.m)
	c := make([]float64, km.m)
	var xNZ, yNZ, cNZ []int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
			b.Fatal("basis singular")
		}
		for p, j := range basic {
			for _, q := range xNZ {
				x[q] = 0
			}
			lo, hi := km.colPtr[j], km.colPtr[j+1]
			xNZ = lu.ftranSparse(km.rowIdx[lo:hi], km.vals[lo:hi], x)
			c[p] = 1
			cNZ, yNZ = lu.btranSparse(c, append(cNZ[:0], int32(p)), y, yNZ)
			for _, q := range cNZ {
				c[q] = 0
			}
		}
	}
}

// rlShapedBasis builds BenchmarkLUKeyRows's matrix and basis.
func rlShapedBasis(b *testing.B) (*keyedMatrix, []int) {
	rng := rand.New(rand.NewSource(9))
	const nKey, nCap = 1000, 456
	km := &keyedMatrix{m: nKey + nCap, nKey: nKey, colPtr: []int32{0}}
	add := func(rows []int32, vals []float64) int {
		km.rowIdx = append(km.rowIdx, rows...)
		km.vals = append(km.vals, vals...)
		km.colPtr = append(km.colPtr, int32(len(km.rowIdx)))
		return len(km.colPtr) - 2
	}
	// Each path meets a contiguous run of 4–12 capacity rows (one link,
	// several slots) at the request's rate.
	for g := 0; g < nKey; g++ {
		rate := 0.01 + 0.49*rng.Float64()
		var set []int
		for range 3 {
			run := 4 + rng.Intn(9)
			start := nKey + rng.Intn(nCap-run)
			rows := []int32{int32(g)}
			vals := []float64{1}
			for r := start; r < start+run; r++ {
				rows = append(rows, int32(r))
				vals = append(vals, rate)
			}
			set = append(set, add(rows, vals))
		}
		km.sets = append(km.sets, set)
	}
	for r := nKey; r < km.m; r += 12 {
		var rows []int32
		var vals []float64
		for q := r; q < min(r+12, km.m); q++ {
			rows = append(rows, int32(q))
			vals = append(vals, -1)
		}
		km.bw = append(km.bw, add(rows, vals))
	}
	for i := 0; i < km.m; i++ {
		km.slack = append(km.slack, add([]int32{int32(i)}, []float64{1}))
	}
	km.keys.find(km.m, km.colPtr, km.rowIdx, km.vals)

	// The basis: one path per request, a second path for every tenth
	// request and the bandwidth columns in place of capacity slacks,
	// kept only while the basis stays nonsingular.
	lu := new(luBasis)
	basic := slices.Clone(km.slack)
	for g, set := range km.sets {
		basic[g] = set[0]
	}
	if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
		b.Fatal("path basis singular")
	}
	var extra []int
	for g := 0; g < nKey; g += 10 {
		extra = append(extra, km.sets[g][1])
	}
	extra = append(extra, km.bw...)
	for k, j := range extra {
		p := nKey + (k*37)%nCap
		old := basic[p]
		basic[p] = j
		if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
			basic[p] = old
		}
	}
	return km, basic
}
