package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Update kinds, as luBasis.update tells them apart.
const (
	kindSwap   = iota // key swap: the key block alone
	kindChange        // key change: relabel, then a column of S
	kindS             // a column of S replaced
	nKinds
)

// updateKind classifies the pivot that makes column enter basic at
// position p before lu.update absorbs it.
func updateKind(lu *luBasis, p int) int {
	if lu.nk == 0 || lu.keyAt[p] < 0 {
		return kindS
	}
	if lu.mHead[lu.keyAt[p]] < 0 {
		return kindSwap
	}
	return kindChange
}

// checkUpdated holds lu's solves against Gaussian elimination on the
// explicit basis matrix of basic, to 1e-9 relative: dense FTRAN and
// BTRAN of a random vector, sparse FTRAN of a few working columns and
// sparse BTRAN of a few unit vectors, each through its buffer's
// zero-outside-pattern invariant.
func (km *keyedMatrix) checkUpdated(t testing.TB, rng *rand.Rand, lu *luBasis, basic []int, what string) {
	t.Helper()
	m := km.m
	B := km.dense(basic)
	BT := transpose(B)
	solve := func(A [][]float64, b []float64) []float64 {
		t.Helper()
		x, ok := denseSolve(A, b)
		if !ok {
			t.Fatalf("%s: reference basis singular", what)
		}
		return x
	}
	near := func(got, want []float64, solve string) {
		t.Helper()
		scale := 1.0
		for _, v := range want {
			scale = max(scale, math.Abs(v))
		}
		if d := maxAbsDiff(got, want); d > 1e-9*scale {
			t.Fatalf("%s: %s differs from Gaussian elimination by %g (scale %g)", what, solve, d, scale)
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	got := make([]float64, m)
	lu.ftran(slices.Clone(b), got)
	near(got, solve(B, b), "ftran")
	lu.btran(slices.Clone(b), got)
	near(got, solve(BT, b), "btran")

	x := make([]float64, m)
	for range 3 {
		j := rng.Intn(len(km.colPtr) - 1)
		lo, hi := km.colPtr[j], km.colPtr[j+1]
		xNZ := lu.ftranSparse(km.rowIdx[lo:hi], km.vals[lo:hi], x)
		a := make([]float64, m)
		for q := lo; q < hi; q++ {
			a[km.rowIdx[q]] = km.vals[q]
		}
		near(x, solve(B, a), fmt.Sprintf("ftranSparse of column %d", j))
		for p, v := range x {
			if v != 0 && !slices.Contains(xNZ, int32(p)) {
				t.Fatalf("%s: ftranSparse of column %d: position %d nonzero outside the pattern", what, j, p)
			}
		}
		for _, p := range xNZ {
			x[p] = 0
		}
	}
	c := make([]float64, m)
	y := make([]float64, m)
	for range 3 {
		p := rng.Intn(m)
		c[p] = 1
		cNZ, _ := lu.btranSparse(c, []int32{int32(p)}, y, nil)
		for _, q := range cNZ {
			c[q] = 0
		}
		e := make([]float64, m)
		e[p] = 1
		near(y, solve(BT, e), fmt.Sprintf("btranSparse of e_%d", p))
		clear(y)
	}
}

// pivotIn runs one simplex-style pivot on lu: the sparse FTRAN of
// working column enter (which leaves its spike), a leaving position
// picked by pick from the positions whose direction entry is at least
// a twentieth of the largest (ascending), and the update. It returns
// the leaving position (-1: no acceptable pivot, nothing done), the
// update's kind and outcome.
func (km *keyedMatrix) pivotIn(lu *luBasis, enter int, pick func(cands []int) int) (leave, kind int, out updOutcome) {
	w := make([]float64, km.m)
	lo, hi := km.colPtr[enter], km.colPtr[enter+1]
	wNZ := slices.Clone(lu.ftranSparse(km.rowIdx[lo:hi], km.vals[lo:hi], w))
	big := 0.0
	for _, p := range wNZ {
		big = max(big, math.Abs(w[p]))
	}
	var cands []int
	for _, p := range wNZ {
		if math.Abs(w[p]) >= big/20 && big > 1e-9 {
			cands = append(cands, int(p))
		}
	}
	if len(cands) == 0 {
		return -1, 0, updOK
	}
	slices.Sort(cands)
	leave = cands[pick(cands)]
	kind = updateKind(lu, leave)
	return leave, kind, lu.update(leave, enter, w, wNZ)
}

// TestLUUpdateKinds stacks 240 updates on one factor of RL-shaped
// bases, with the growth bound lifted so that nothing refactors, and
// checks every solve against Gaussian elimination after each update.
// Every kind of update must occur: key swaps, key changes (a leaving
// key column with basic members) and S-column replacements.
func TestLUUpdateKinds(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		km := newKeyedMatrix(rng, 30, 20)
		g := slices.IndexFunc(km.sets, func(set []int) bool { return len(set) >= 3 })
		basic := km.randomKeyedBasis(rng, g)
		lu := new(luBasis)
		if !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
			t.Fatalf("seed %d: factor reported singular", seed)
		}
		lu.size0 = math.MaxInt32 / 2 // no refactorization for growth
		var kinds [nKinds]int
		for n := 0; n < 240; {
			enter := rng.Intn(len(km.colPtr) - 1)
			if slices.Contains(basic, enter) {
				continue
			}
			// Aim at the kinds in turn: a candidate of the wanted kind
			// when there is one.
			want := n % nKinds
			leave, kind, out := km.pivotIn(lu, enter, func(cands []int) int {
				for _, i := range rng.Perm(len(cands)) {
					if updateKind(lu, cands[i]) == want {
						return i
					}
				}
				return rng.Intn(len(cands))
			})
			if leave < 0 {
				continue
			}
			if out != updOK {
				t.Fatalf("seed %d update %d (kind %d): refused (%d)", seed, n, kind, out)
			}
			basic[leave] = enter
			kinds[kind]++
			n++
			km.checkUpdated(t, rng, lu, basic, fmt.Sprintf("seed %d update %d (kind %d)", seed, n, kind))
		}
		for k, c := range kinds {
			if c < 40 {
				t.Fatalf("seed %d: %d updates of kind %d in 240 (counts %v), want at least 40", seed, c, k, kinds)
			}
		}
	}
}

// FuzzLUUpdate decodes a key-row basis of one of TestLUKeyRows' shapes
// and a pivot sequence, drives the pivots through update (refactoring
// when one is refused, as the simplex does) and checks dense and sparse
// FTRAN and BTRAN against Gaussian elimination after every update.
//
// Encoding: byte 0 picks the shape, byte 1 seeds the matrix and basis;
// then each pair (e, l) is a pivot: the e-th nonbasic column (mod
// their count) enters, and the l-th acceptable position (mod theirs)
// leaves.
func FuzzLUUpdate(f *testing.F) {
	f.Add([]byte{0, 1, 3, 0, 7, 1, 9, 2, 4, 0, 200, 3})
	f.Add([]byte{1, 2, 5, 1, 5, 2, 5, 3, 11, 0, 13, 1, 17, 2, 19, 0})
	f.Add([]byte{2, 3, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7})
	f.Add([]byte{3, 4, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8, 0})
	state := uint64(0x243f6a8885a308d3)
	for seed := 0; seed < 4; seed++ {
		buf := make([]byte, 2+2*40)
		for i := range buf {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			buf[i] = byte(state)
		}
		f.Add(buf)
	}
	shapes := []struct {
		nKey, nCap int
		basis      string
	}{
		{30, 20, "slack"},
		{30, 20, "random"},
		{60, 12, "random"},
		{30, 20, "three"},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			t.Skip("not enough bytes")
		}
		sh := shapes[int(data[0])%len(shapes)]
		rng := rand.New(rand.NewSource(int64(data[1])))
		km := newKeyedMatrix(rng, sh.nKey, sh.nCap)
		var basic []int
		switch sh.basis {
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
			t.Fatal("factor reported the basis singular")
		}
		in := make([]bool, len(km.colPtr)-1)
		for _, j := range basic {
			in[j] = true
		}
		for i := 2; i+1 < len(data) && i < 2+2*40; i += 2 {
			var nonbasic []int
			for j, b := range in {
				if !b {
					nonbasic = append(nonbasic, j)
				}
			}
			enter := nonbasic[int(data[i])%len(nonbasic)]
			l := int(data[i+1])
			leave, kind, out := km.pivotIn(lu, enter, func(cands []int) int { return l % len(cands) })
			if leave < 0 {
				continue
			}
			in[basic[leave]], in[enter] = false, true
			basic[leave] = enter
			what := fmt.Sprintf("pivot %d (kind %d)", i/2, kind)
			if out != updOK && !lu.factor(km.m, km.colPtr, km.rowIdx, km.vals, basic, &km.keys) {
				// A refused pivot onto a singular basis: the simplex
				// would put the leaving column back.
				return
			}
			km.checkUpdated(t, rng, lu, basic, what)
		}
	})
}
