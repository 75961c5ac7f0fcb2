package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// bealeProblem is the classic cycling-prone instance (Beale); its
// optimum is -0.05 in Minimize sense.
func bealeProblem(t *testing.T) *Problem {
	t.Helper()
	d := newDraft(t, Minimize)
	x4 := d.variable(-0.75, 0, math.Inf(1), "x4")
	x5 := d.variable(150, 0, math.Inf(1), "x5")
	x6 := d.variable(-0.02, 0, math.Inf(1), "x6")
	x7 := d.variable(6, 0, math.Inf(1), "x7")
	c1 := d.row(LE, 0, "c1")
	c2 := d.row(LE, 0, "c2")
	c3 := d.row(LE, 1, "c3")
	d.term(c1, x4, 0.25)
	d.term(c1, x5, -60)
	d.term(c1, x6, -0.04)
	d.term(c1, x7, 9)
	d.term(c2, x4, 0.5)
	d.term(c2, x5, -90)
	d.term(c2, x6, -0.02)
	d.term(c2, x7, 3)
	d.term(c3, x6, 1)
	return d.build()
}

// degenerateChain maximizes Σx over x_j ≤ x_{j+1}, x_n ≤ 1: every
// pivot but the last is degenerate (the rhs is all zeros), so
// 40-pivot streaks demote it to the hashed tie order and then to
// Bland's rule. Optimum n.
func degenerateChain(t *testing.T, n int) *Problem {
	t.Helper()
	d := newDraft(t, Maximize)
	for j := 0; j < n; j++ {
		d.variable(1, 0, math.Inf(1), "x")
	}
	for j := 0; j+1 < n; j++ {
		r := d.row(LE, 0, "chain")
		d.term(r, j, 1)
		d.term(r, j+1, -1)
	}
	d.term(d.row(LE, 1, "cap"), n-1, 1)
	return d.build()
}

// hallMcKinnon is the two-row cycling example of Hall and McKinnon
// (2004), with a cap row Σx ≤ 1 added to bound it. Dantzig's rule
// cycles on it through six bases, and its ratio tests never tie, so no
// tie-break can end the cycle: only Bland's entering rule does.
// Optimum −0.875.
func hallMcKinnon(t *testing.T) *Problem {
	t.Helper()
	d := newDraft(t, Minimize)
	for _, c := range []float64{-2.3, -2.15, 13.55, 0.4} {
		d.variable(c, 0, math.Inf(1), "x")
	}
	for _, row := range [][]float64{{0.4, 0.2, -1.4, -0.2}, {-7.8, -1.4, 7.8, 0.4}, {1, 1, 1, 1}} {
		rhs := 0.0
		if row[0] == 1 {
			rhs = 1
		}
		r := d.row(LE, rhs, "row")
		for j, a := range row {
			d.term(r, j, a)
		}
	}
	return d.build()
}

// TestCyclingInstanceAllPricings drives every rung of the anti-cycling
// ladder on both basis representations under default options — no
// option names a rung, so these instances are its termination
// reproducers: Beale's cycling instance must reach its known optimum
// with no demotion, the degenerate chain through at least one, and
// Hall and McKinnon's instance only through both, down to Bland's rule.
func TestCyclingInstanceAllPricings(t *testing.T) {
	for _, c := range []struct {
		name  string
		basis basisKind
	}{{"inverse", basisInverse}, {"lu", basisLU}} {
		for _, inst := range []struct {
			name      string
			p         *Problem
			want      float64
			demotions int64
		}{
			{"beale", bealeProblem(t), -0.05, 0},
			{"chain", degenerateChain(t, 100), 100, 1},
			{"hall-mckinnon", hallMcKinnon(t), -0.875, 2},
		} {
			before := cPricingFallbacks.Value()
			sol, err := inst.p.Solve(Options{basis: c.basis})
			if err != nil {
				t.Fatalf("%s/%s: %v", inst.name, c.name, err)
			}
			if sol.Status != StatusOptimal {
				t.Fatalf("%s/%s: status %v, want optimal", inst.name, c.name, sol.Status)
			}
			if sol.Factorized != (c.basis == basisLU) {
				t.Fatalf("%s/%s: Factorized = %v", inst.name, c.name, sol.Factorized)
			}
			if math.Abs(sol.Objective-inst.want) > 1e-6 {
				t.Fatalf("%s/%s: objective %v, want %v", inst.name, c.name, sol.Objective, inst.want)
			}
			if got := cPricingFallbacks.Value() - before; got < inst.demotions {
				t.Fatalf("%s/%s: %d demotions, want at least %d", inst.name, c.name, got, inst.demotions)
			}
		}
	}
}

// refGatherPivotRow is the stamped pivot-row gather the packed one
// replaced, kept as its oracle: four per-column arrays (state and up as
// the filter, a stamp and a value per column) over a CSR mirror of
// every column, artificials included.
type refGatherPivotRow struct {
	rowPtr, colInd []int32
	rVals          []float64
	alpha          []float64
	mark           []int32
	stamp          int32
}

func newRefGather(s *simplex) *refGatherPivotRow {
	r := &refGatherPivotRow{rowPtr: make([]int32, s.m+1), alpha: make([]float64, s.n), mark: make([]int32, s.n)}
	for _, i := range s.rowIdx[:s.colPtr[s.n]] {
		r.rowPtr[i+1]++
	}
	for i := 0; i < s.m; i++ {
		r.rowPtr[i+1] += r.rowPtr[i]
	}
	next := slices.Clone(r.rowPtr[:s.m])
	r.colInd = make([]int32, s.colPtr[s.n])
	r.rVals = make([]float64, s.colPtr[s.n])
	for j := 0; j < s.n; j++ {
		for q := s.colPtr[j]; q < s.colPtr[j+1]; q++ {
			i := s.rowIdx[q]
			r.colInd[next[i]], r.rVals[next[i]] = int32(j), s.vals[q]
			next[i]++
		}
	}
	return r
}

func (r *refGatherPivotRow) gather(s *simplex, rho []float64, rhoNZ []int32) []int32 {
	r.stamp++
	var nz []int32
	for _, i := range rhoNZ {
		rv := rho[i]
		if rv == 0 {
			continue
		}
		for q := r.rowPtr[i]; q < r.rowPtr[i+1]; q++ {
			j := r.colInd[q]
			if s.state[j] == isBasic || s.up[j] == 0 {
				continue
			}
			if r.mark[j] != r.stamp {
				r.mark[j] = r.stamp
				r.alpha[j] = 0
				nz = append(nz, j)
			}
			r.alpha[j] += rv * r.rVals[q]
		}
	}
	return nz
}

// TestGatherPivotRowMatchesStamped holds the packed pivot-row gather
// to the stamped one it replaced, on random key-row LU bases from
// TestLUKeyRows' generator with an artificial on some serve rows (basic
// in some, locked at 0 like every dual repair's): for ρ = e_r·B⁻¹ of
// every row r, the same columns in the same order with bit-equal α,
// and never a basic or an artificial column. It checks again after
// each of a run of dual pivots, which keep the movable flags with
// pivotMovable as dualIterate does.
func TestGatherPivotRowMatchesStamped(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			km := newKeyedMatrix(rng, 30, 20)
			basic := km.randomKeyedBasis(rng, -1)

			// Append an artificial, locked at 0, to every third serve row;
			// where the serve row's slack is basic, its artificial takes
			// its place.
			s := &simplex{m: km.m, colPtr: slices.Clone(km.colPtr), rowIdx: slices.Clone(km.rowIdx), vals: slices.Clone(km.vals)}
			s.artStart = len(s.colPtr) - 1
			for g := 0; g < km.nKey; g += 3 {
				s.rowIdx = append(s.rowIdx, int32(g))
				s.vals = append(s.vals, 1)
				s.colPtr = append(s.colPtr, int32(len(s.rowIdx)))
				if basic[g] == km.slack[g] && rng.Intn(2) == 0 {
					basic[g] = len(s.colPtr) - 2
				}
			}
			s.n = len(s.colPtr) - 1
			s.nArt = s.n - s.artStart
			s.basic = basic
			s.state = make([]int, s.n)
			s.up = make([]float64, s.n)
			for j := range s.up {
				switch {
				case j >= s.artStart:
				case rng.Intn(6) == 0:
					// fixed: up 0, never movable
				case rng.Intn(2) == 0:
					s.up[j] = math.Inf(1)
				default:
					s.up[j] = 1 + rng.Float64()
				}
				if !math.IsInf(s.up[j], 1) && s.up[j] != 0 && rng.Intn(2) == 0 {
					s.state[j] = atUpper
				}
			}
			for _, j := range basic {
				s.state[j] = isBasic
			}
			s.keys.find(s.m, s.colPtr, s.rowIdx, s.vals)
			s.lu = new(luBasis)
			if !s.lu.factor(s.m, s.colPtr, s.rowIdx, s.vals, s.basic, &s.keys) {
				t.Fatal("random keyed basis factored singular")
			}
			s.startPivotRows()
			ref := newRefGather(s)

			rho, cb := make([]float64, s.m), make([]float64, s.m)
			var rhoNZ []int32
			btran := func(r int) {
				cb[r] = 1
				var cbNZ []int32
				cbNZ, rhoNZ = s.lu.btranSparse(cb, []int32{int32(r)}, rho, rhoNZ)
				for _, p := range cbNZ {
					cb[p] = 0
				}
			}
			check := func(what string) {
				t.Helper()
				for r := 0; r < s.m; r++ {
					btran(r)
					want := ref.gather(s, rho, rhoNZ)
					got := s.gatherPivotRow(rho, rhoNZ)
					if !slices.Equal(got, want) {
						t.Fatalf("%s row %d: candidates %v, want %v", what, r, got, want)
					}
					for _, j := range got {
						if s.state[j] == isBasic || int(j) >= s.artStart {
							t.Fatalf("%s row %d: gathered column %d (basic %v, artificial %v)",
								what, r, j, s.state[j] == isBasic, int(j) >= s.artStart)
						}
						if math.Float64bits(s.alpha[j].v) != math.Float64bits(ref.alpha[j]) {
							t.Fatalf("%s row %d: α_%d = %v, want %v", what, r, j, s.alpha[j].v, ref.alpha[j])
						}
					}
				}
			}
			check("fresh")

			w := make([]float64, s.m)
			for pivot := 0; pivot < 40; pivot++ {
				// A dual pivot: the leaving row, and the entering column
				// of its pivot row with the largest |α|.
				leave := rng.Intn(s.m)
				btran(leave)
				enter := -1
				for _, j := range s.gatherPivotRow(rho, rhoNZ) {
					if a := math.Abs(s.alpha[j].v); a > 1e-3 && (enter < 0 || a > math.Abs(s.alpha[enter].v)) {
						enter = int(j)
					}
				}
				if enter < 0 {
					continue
				}
				clear(w)
				lo, hi := s.colPtr[enter], s.colPtr[enter+1]
				s.wNZ = slices.Clone(s.lu.ftranSparse(s.rowIdx[lo:hi], s.vals[lo:hi], w))
				exit := s.basic[leave]
				if !s.basisPivot(leave, enter, w) {
					t.Fatalf("pivot %d: basis does not factor", pivot)
				}
				s.state[exit] = atLower
				if !math.IsInf(s.up[exit], 1) && s.up[exit] != 0 && rng.Intn(2) == 0 {
					s.state[exit] = atUpper
				}
				s.state[enter] = isBasic
				s.pivotMovable(enter, exit)
				check(fmt.Sprintf("after pivot %d", pivot))
			}
		})
	}
}
