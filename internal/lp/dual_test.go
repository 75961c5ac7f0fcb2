package lp

import (
	"math"
	"sort"
	"testing"

	"metis/internal/stats"
)

// scanLeave is the reference leaving-row rule: one pass over every row,
// the largest violation wins, ties to the lowest row.
func scanLeave(s *simplex) (int, float64) {
	leave, viol, worst := -1, 0.0, 0.0
	for i := 0; i < s.m; i++ {
		xv := s.xB[i]
		if xv < -tol {
			if -xv > worst {
				leave, viol, worst = i, xv, -xv
			}
		} else if ub := s.up[s.basic[i]]; xv > ub+tol {
			if v := xv - ub; v > worst {
				leave, viol, worst = i, v, v
			}
		}
	}
	return leave, viol
}

// TestLeavingRowIndexMatchesScan drives random basic-value and bound
// changes through the leaving-row index and checks, after every step,
// the row and signed violation against the full scan. Values live on a
// coarse grid, so equal violations are common, and every step moves rows
// into and out of the violated set.
func TestLeavingRowIndexMatchesScan(t *testing.T) {
	rng := stats.NewRNG(38)
	grid := func() float64 { return float64(rng.Intn(17)-6) / 2 } // -3 … 5
	bounds := []float64{0, 1, 2, math.Inf(1)}
	for _, m := range []int{1, 63, 64, 65, 200} {
		s := &simplex{m: m, n: 2 * m, opts: Options{}.withDefaults(m, 2*m)}
		s.xB = make([]float64, m)
		s.basic = make([]int, m)
		s.up = make([]float64, s.n)
		for i := range s.basic {
			s.basic[i] = 2*i + rng.Intn(2)
			s.xB[i] = grid()
		}
		for j := range s.up {
			s.up[j] = bounds[rng.Intn(len(bounds))]
		}
		s.buildLeaveIndex()
		ties, entered, left := 0, 0, 0
		for step := 0; step < 400; step++ {
			leave, viol := s.pickLeave()
			wantLeave, wantViol := scanLeave(s)
			if leave != wantLeave || viol != wantViol {
				t.Fatalf("m=%d step %d: index picks row %d (viol %v), scan picks row %d (viol %v)",
					m, step, leave, viol, wantLeave, wantViol)
			}
			if leave >= 0 {
				for i := leave + 1; i < m; i++ {
					if s.leaveKey[i] == s.leaveKey[leave] {
						ties++
						break
					}
				}
			}
			// Move a few rows, as a pivot moves its direction's pattern:
			// new basic values, and now and then a new basic variable or
			// a new bound on the current one.
			for k := 1 + rng.Intn(4); k > 0; k-- {
				i := rng.Intn(m)
				was := s.rowViol(i) != 0
				switch rng.Intn(4) {
				case 0:
					s.basic[i] = 2*i + rng.Intn(2)
				case 1:
					s.up[s.basic[i]] = bounds[rng.Intn(len(bounds))]
				default:
					s.xB[i] = grid()
				}
				s.rekey(i)
				switch now := s.rowViol(i) != 0; {
				case now && !was:
					entered++
				case was && !now:
					left++
				}
			}
		}
		if m > 1 && (ties == 0 || entered == 0 || left == 0) {
			t.Fatalf("m=%d: weak coverage: %d tied picks, %d rows entered and %d left the violated set",
				m, ties, entered, left)
		}
	}
}

// sortMerge is mergedColumn's general path, written out as the
// reference: a stable sort by row, duplicates summed, zeros dropped.
func sortMerge(col []entry) []entry {
	sorted := append([]entry(nil), col...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].row < sorted[b].row })
	var out []entry
	for _, e := range sorted {
		if len(out) > 0 && out[len(out)-1].row == e.row {
			out[len(out)-1].val += e.val
			continue
		}
		out = append(out, e)
	}
	final := out[:0]
	for _, e := range out {
		if e.val != 0 {
			final = append(final, e)
		}
	}
	return final
}

// TestMergedColumnFastPath checks that every column shape a draft
// emits lands in the CSC matrix exactly as the sort-and-merge path would
// put it, whether or not it takes the already-sorted shortcut.
func TestMergedColumnFastPath(t *testing.T) {
	cases := []struct {
		name  string
		terms []entry
	}{
		{"empty", nil},
		{"single", []entry{{3, 2}}},
		{"sorted", []entry{{0, 1}, {2, -1.5}, {5, 4}}},
		{"out of order", []entry{{4, 1}, {1, 2}, {3, -3}, {0, 0.25}}},
		{"duplicate rows", []entry{{1, 1}, {1, 2}, {0, 5}, {1, 0.5}}},
		{"sorted with a duplicate", []entry{{0, 1}, {2, 1}, {2, 1}, {4, 1}}},
		{"duplicates cancel", []entry{{2, 1.5}, {0, 1}, {2, -1.5}}},
		{"only a cancelling pair", []entry{{3, 7}, {3, -7}}},
	}
	d := newDraft(t, Minimize)
	for i := 0; i < 6; i++ {
		d.row(LE, 1, "r")
	}
	for _, c := range cases {
		j := d.variable(1, 0, 1, c.name)
		for _, e := range c.terms {
			d.term(e.row, j, e.val)
		}
	}
	mat := d.build().matrix
	for j, c := range cases {
		want := sortMerge(c.terms)
		lo, hi := mat.colPtr[j], mat.colPtr[j+1]
		if int(hi-lo) != len(want) {
			t.Fatalf("%s: %d CSC entries, want %d", c.name, hi-lo, len(want))
		}
		for k, e := range want {
			if r, v := mat.rows[int(lo)+k], mat.vals[int(lo)+k]; int(r) != e.row || v != e.val {
				t.Fatalf("%s: entry %d is (%d, %v), want (%d, %v)", c.name, k, r, v, e.row, e.val)
			}
		}
	}
}

// capLP minimizes Σ (1 + j/1000)·x_j over 300 columns in [0, 1] subject
// to one equality row Σ x_j = rhs. Every dual pivot moves the row's
// basic value by one unit, so a repair to a large rhs needs about rhs
// pivots — more than the 200+4m = 204 the dual repair is allowed.
func capLP(t *testing.T, rhs float64) *Problem {
	t.Helper()
	d := newDraft(t, Minimize)
	r := d.row(EQ, rhs, "sum")
	for j := 0; j < 300; j++ {
		d.term(r, d.variable(1+float64(j)/1000, 0, 1, "x"), 1)
	}
	return d.build()
}

// TestDualCapHandsOver drives the dual simplex to its pivot cap from
// both of its callers and checks that each hands over to a path with its
// own guarantee: the dual cold start to two-phase primal, a warm repair
// to the cold solve. Either way the answer is the cold optimum.
func TestDualCapHandsOver(t *testing.T) {
	const rhs = 250
	want := 0.0
	for j := 0; j < rhs; j++ {
		want += 1 + float64(j)/1000
	}
	check := func(what string, sol *Solution) {
		t.Helper()
		if sol.Status != StatusOptimal || math.Abs(sol.Objective-want) > 1e-9*(1+want) {
			t.Fatalf("%s: status %v objective %.12g, want optimal %.12g", what, sol.Status, sol.Objective, want)
		}
	}

	bails := cDualColdBails.Value()
	sol, err := capLP(t, rhs).Solve(Options{basis: basisLU})
	if err != nil {
		t.Fatal(err)
	}
	if cDualColdBails.Value() != bails+1 {
		t.Fatal("the dual cold start did not stall at its cap and bail to two-phase primal")
	}
	check("dual cold start", sol)

	for _, basis := range []basisKind{basisInverse, basisLU} {
		p := capLP(t, 2.5)
		w := NewBasis()
		if _, err := p.Solve(Options{basis: basis, Warm: w}); err != nil {
			t.Fatal(err)
		}
		if err := p.SetRHS(0, rhs); err != nil {
			t.Fatal(err)
		}
		stalls := cWarmStalls.Value()
		sol, err := p.Solve(Options{basis: basis, Warm: w})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Warm || cWarmStalls.Value() != stalls+1 {
			t.Fatalf("basis %v: the warm repair did not stall at its cap and fall back cold (warm=%v)", basis, sol.Warm)
		}
		check("warm repair", sol)
	}
}
