package lp

import (
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
			if !lu.factor(m, colPtr, rowIdx, vals, basic) {
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
	if lu.factor(3, colPtr, rowIdx, vals, identityBasic(3)) {
		t.Error("factor accepted a basis with an empty column")
	}
	colPtr = []int32{0, 2, 4, 6}
	rowIdx = []int32{0, 1, 1, 2, 0, 2}
	vals = []float64{1, 1, 1, 1, 1, 1}
	// Rows: [1 0 1; 1 1 0; 0 1 1] is nonsingular; flip a sign to make
	// column 2 the sum of the others.
	vals[4], vals[5] = -1, 1
	// cols: (1,1,0),(0,1,1),(-1,0,1): col0 - col1 + col2 = 0 → singular.
	if lu.factor(3, colPtr, rowIdx, vals, identityBasic(3)) {
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
		if !lu.factor(m, colPtr, rowIdx, vals, basic) {
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
		if !lu.factor(m, colPtr, rowIdx, vals, basic) {
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

// TestLUEtaUpdates replaces basis columns one at a time through
// appendEta (refactoring whenever an update is refused, exactly like
// basisPivot) and checks after every pivot that FTRAN and BTRAN through
// the eta file agree with a fresh factorization of the updated basis.
func TestLUEtaUpdates(t *testing.T) {
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
	if !lu.factor(m, colPtr, rowIdx, vals, basic) {
		t.Fatal("initial factor reported singular")
	}

	w := make([]float64, m)
	for pivot := 0; pivot < 40; pivot++ {
		enter := m + rng.Intn(n-m)
		// FTRAN the entering column to get the direction.
		dense := make([]float64, m)
		for q := colPtr[enter]; q < colPtr[enter+1]; q++ {
			dense[rowIdx[q]] = vals[q]
		}
		lu.ftran(dense, w)
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
		if appendDenseEta(lu, leave, w) != etaOK {
			// Refused update: refactor the post-pivot basis, as
			// simplex.basisPivot does.
			basic[leave] = enter
			if !lu.factor(m, colPtr, rowIdx, vals, basic) {
				t.Fatalf("pivot %d: refactorization reported singular", pivot)
			}
		} else {
			basic[leave] = enter
		}

		fresh := new(luBasis)
		if !fresh.factor(m, colPtr, rowIdx, vals, basic) {
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
			t.Fatalf("pivot %d: eta-file FTRAN differs from fresh factors by %g", pivot, d)
		}
		lu.btran(append([]float64(nil), b...), got)
		fresh.btran(append([]float64(nil), b...), want)
		if d := maxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("pivot %d: eta-file BTRAN differs from fresh factors by %g", pivot, d)
		}
		// The sparse BTRAN of a unit vector — a dual pivot row — skips
		// the etas its right-hand side cannot reach; it must still match
		// the full pass over the eta file, for every position.
		for r := 0; r < m; r++ {
			unit := make([]float64, m)
			unit[r] = 1
			lu.btran(append([]float64(nil), unit...), want)
			clear(got)
			lu.btranSparse(unit, []int32{int32(r)}, got, nil)
			if d := maxAbsDiff(got, want); d > 1e-12 {
				t.Fatalf("pivot %d: sparse BTRAN of e_%d differs from the full eta pass by %g", pivot, r, d)
			}
		}
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
	if !lu.factor(m, colPtr, rowIdx, vals, basic) {
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
// start not yet seen, visit successors adj[ptr[s]:ptr[s+1]] in stored
// order and emit a step after all of them.
func refPostorder(ptr, adj, starts []int32, m int) []int32 {
	seen := make([]bool, m)
	var out []int32
	var visit func(s int32)
	visit = func(s int32) {
		seen[s] = true
		for _, t := range adj[ptr[s]:ptr[s+1]] {
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
// one stamp, on all four solve graphs of a factor carrying etas. The
// solves accumulate in the reverse of this order, so a different walk
// changes their floating-point results even where the solve-vs-dense
// tolerances above cannot see it.
func TestLUDFSPostorder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := 60
	colPtr, rowIdx, vals := randBasisCSC(rng, m, 0.06)
	lu := new(luBasis)
	if !lu.factor(m, colPtr, rowIdx, vals, identityBasic(m)) {
		t.Fatal("factor reported singular")
	}
	w := make([]float64, m)
	for e := 0; e < 5; e++ {
		b := make([]float64, m)
		b[rng.Intn(m)] = 1
		b[rng.Intn(m)] += 1 + rng.Float64()
		lu.ftran(b, w)
		p := 0
		for i, v := range w {
			if math.Abs(v) > math.Abs(w[p]) {
				p = i
			}
		}
		if appendDenseEta(lu, p, w) != etaOK {
			t.Fatalf("eta %d refused", e)
		}
	}
	for idx, r := range lu.lRows {
		if lu.lSteps[idx] != lu.pinv[r] {
			t.Fatalf("lSteps[%d] = %d, want pinv[%d] = %d", idx, lu.lSteps[idx], r, lu.pinv[r])
		}
	}
	graphs := []struct {
		name     string
		ptr, adj []int32
	}{
		{"L", lu.lPtr, lu.lSteps},
		{"U", lu.uPtr, lu.uRows},
		{"Uᵀ", lu.utPtr, lu.utCols},
		{"Lᵀ", lu.ltPtr, lu.ltCols},
	}
	for _, g := range graphs {
		branching := 0
		for s := 0; s < m; s++ {
			if g.ptr[s+1]-g.ptr[s] > 1 {
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
					got = lu.dfs(g.ptr, g.adj, s, stamp, got)
				}
			}
			if want := refPostorder(g.ptr, g.adj, starts, m); !slices.Equal(got, want) {
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
	if !lu.factor(m, colPtr, rowIdx, vals, identityBasic(m)) {
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

// appendDenseEta calls appendEta for a direction w held densely: its
// pattern is every position.
func appendDenseEta(lu *luBasis, p int, w []float64) etaOutcome {
	pattern := make([]int32, len(w))
	for i := range pattern {
		pattern[i] = int32(i)
	}
	return lu.appendEta(p, w, pattern)
}
