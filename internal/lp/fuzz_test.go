package lp

import (
	"fmt"
	"math"
	"testing"
)

// FuzzSimplex differentially fuzzes the sparse revised simplex against
// refSolve, an independent dense two-phase tableau implementation with
// Bland's rule. The fuzzer decodes the raw bytes into a tiny bounded LP
// (every variable has a finite upper bound, so unbounded problems are
// impossible by construction), solves it with both implementations, and
// requires the statuses to agree — and, when both are optimal, the
// objective values to match within 1e-6.
func FuzzSimplex(f *testing.F) {
	// Seed corpus: a few byte strings that decode into LPs exercising
	// each relation, both senses, and an infeasible system.
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{255, 254, 253, 252, 251, 250, 249, 248, 247, 246})
	f.Add([]byte{7, 1, 0, 2, 6, 6, 3, 0, 8, 1, 4, 4, 2, 9, 5, 0, 1})
	f.Add([]byte{42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42, 42})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4})

	f.Fuzz(func(t *testing.T, data []byte) {
		fz, ok := decodeFuzzLP(data)
		if !ok {
			t.Skip("not enough bytes")
		}
		checkAgainstReference(t, fz)
	})
}

// FuzzWarmRepair fuzzes the warm repair — the dual simplex's second
// caller — against cold solves. The leading bytes decode into an LP as
// for FuzzSimplex, which is solved with the LU basis forced to capture a
// warm handle; each following 3-byte group is one SetRHS or SetBounds
// delta. After every delta the warm solve must report the status of a
// cold solve of the same problem and, at optimality, its objective
// within 1e-9.
func FuzzWarmRepair(f *testing.F) {
	// Seed corpus: 64 pseudo-random bytes each, enough for the largest
	// LP and seven deltas after it.
	state := uint64(0x13198a2e03707344)
	for seed := 0; seed < 8; seed++ {
		buf := make([]byte, 64)
		for i := range buf {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			buf[i] = byte(state)
		}
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fz, ok := decodeFuzzLP(data)
		if !ok {
			t.Skip("not enough bytes")
		}
		m, n := len(fz.rows), len(fz.obj)
		deltas := data[min(len(data), 3+2*n+m*(n+2)):] // what decodeFuzzLP left
		p, q := fz.build(t), fz.build(t)
		w := NewBasis()
		if _, err := p.Solve(Options{basis: basisLU, Warm: w}); err != nil {
			t.Fatal(err)
		}
		for k := 0; k+3 <= len(deltas) && k < 3*8; k += 3 {
			op, a, b := deltas[k], int(deltas[k+1]), deltas[k+2]
			for _, pr := range []*Problem{p, q} {
				var err error
				if op%2 == 0 {
					err = pr.SetRHS(a%m, float64(int(b%9)-4))
				} else {
					hi := float64(b % 5)
					err = pr.SetBounds(a%n, math.Min(float64(b/5%3), hi), hi)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			warm, err := p.Solve(Options{basis: basisLU, Warm: w})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := q.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status == StatusIterLimit || cold.Status == StatusIterLimit {
				t.Skip("iteration limit")
			}
			if warm.Status != cold.Status {
				t.Fatalf("%v\ndelta %d: warm status %v, cold %v (warm path: %v)", fz, k/3, warm.Status, cold.Status, warm.Warm)
			}
			if cold.Status == StatusOptimal && math.Abs(warm.Objective-cold.Objective) > 1e-9*(1+math.Abs(cold.Objective)) {
				t.Fatalf("%v\ndelta %d: warm objective %.15g, cold %.15g (warm path: %v)",
					fz, k/3, warm.Objective, cold.Objective, warm.Warm)
			}
		}
	})
}

// TestSimplexDifferentialSweep runs the same differential oracle as
// FuzzSimplex over a deterministic pseudo-random sweep, so plain
// `go test` exercises the comparison even when fuzzing is never run.
func TestSimplexDifferentialSweep(t *testing.T) {
	state := uint64(0x243f6a8885a308d3)
	next := func() byte {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return byte(state)
	}
	for trial := 0; trial < 400; trial++ {
		buf := make([]byte, 48)
		for i := range buf {
			buf[i] = next()
		}
		fz, ok := decodeFuzzLP(buf)
		if !ok {
			t.Fatalf("trial %d: 48 bytes must always decode", trial)
		}
		checkAgainstReference(t, fz)
	}
}

// fuzzLP is a decoded fuzz instance: a bounded LP in both the package's
// sparse representation and the plain dense arrays refSolve consumes.
type fuzzLP struct {
	sense Sense
	obj   []float64 // length n
	hi    []float64 // finite upper bounds, length n
	rows  [][]float64
	rels  []Rel
	rhs   []float64
}

// decodeFuzzLP turns a byte string into a small bounded LP: m∈[1,4]
// constraints over n∈[1,5] variables, integer coefficients in [-3,3],
// right-hand sides in [-4,4], and finite variable upper bounds in
// [1,4]. Integral data keeps every basic solution exactly
// representable, so the two implementations can be compared tightly.
func decodeFuzzLP(data []byte) (fuzzLP, bool) {
	pos := 0
	next := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	if len(data) < 2 {
		return fuzzLP{}, false
	}
	m := 1 + int(next()%4)
	n := 1 + int(next()%5)
	fz := fuzzLP{sense: Maximize}
	if next()%2 == 0 {
		fz.sense = Minimize
	}
	for j := 0; j < n; j++ {
		fz.obj = append(fz.obj, float64(int(next()%7)-3))
		fz.hi = append(fz.hi, float64(1+int(next()%4)))
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(int(next()%7) - 3)
		}
		fz.rows = append(fz.rows, row)
		fz.rels = append(fz.rels, Rel(1+next()%3))
		fz.rhs = append(fz.rhs, float64(int(next()%9)-4))
	}
	return fz, true
}

// build assembles the package's sparse Problem for the instance.
func (fz fuzzLP) build(t *testing.T) *Problem {
	t.Helper()
	p := NewProblem(fz.sense)
	for j := range fz.obj {
		if _, err := p.AddVariable(fz.obj[j], 0, fz.hi[j], fmt.Sprintf("x%d", j)); err != nil {
			t.Fatalf("AddVariable: %v", err)
		}
	}
	for i := range fz.rows {
		row, err := p.AddConstraint(fz.rels[i], fz.rhs[i], fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatalf("AddConstraint: %v", err)
		}
		for j, coef := range fz.rows[i] {
			if coef == 0 {
				continue
			}
			if err := p.AddTerm(row, j, coef); err != nil {
				t.Fatalf("AddTerm: %v", err)
			}
		}
	}
	return p
}

// checkAgainstReference solves the instance with both implementations
// and compares. Iteration-limited runs (either side) are skipped — the
// oracle only judges runs both solvers finished. Every instance is also
// re-solved through the LU-factorized basis, which must agree with the
// dense-inverse path on status and objective: the fuzzer is the widest
// net we have over the two basis representations disagreeing.
func checkAgainstReference(t *testing.T, fz fuzzLP) {
	t.Helper()
	sol, err := fz.build(t).Solve(Options{})
	if err != nil {
		t.Fatalf("%v\nSolve: %v", fz, err)
	}
	refStatus, refObj := refSolve(fz)
	if sol.Status == StatusIterLimit || refStatus == refIterLimit {
		t.Skip("iteration limit")
	}
	want := StatusOptimal
	if refStatus == refInfeasible {
		want = StatusInfeasible
	}
	if sol.Status != want {
		t.Fatalf("%v\nstatus mismatch: simplex=%v reference=%v", fz, sol.Status, want)
	}
	checkFactorizedParity(t, fz, sol)
	if sol.Status != StatusOptimal {
		return
	}
	if math.Abs(sol.Objective-refObj) > 1e-6 {
		t.Fatalf("%v\nobjective mismatch: simplex=%.12g reference=%.12g (Δ=%g)",
			fz, sol.Objective, refObj, math.Abs(sol.Objective-refObj))
	}
}

// checkFactorizedParity re-solves the instance with the LU-factorized
// basis forced and requires status equality with — and, at
// optimality, objective agreement within 1e-6 of — the dense-inverse
// solution. The printed fuzzLP is the full reproducer: paste it into a
// test (or re-feed the fuzz input) to replay the divergence.
func checkFactorizedParity(t *testing.T, fz fuzzLP, dense *Solution) {
	t.Helper()
	fsol, err := fz.build(t).Solve(Options{basis: basisLU})
	if err != nil {
		t.Fatalf("%v\nfactorized Solve: %v", fz, err)
	}
	if !fsol.Factorized && fsol.Status == StatusOptimal {
		t.Fatalf("%v\nfactorized solve did not report Factorized", fz)
	}
	if fsol.Status == StatusIterLimit {
		t.Skip("factorized iteration limit")
	}
	if fsol.Status != dense.Status {
		t.Fatalf("%v\nfactorized/dense status mismatch: factorized=%v dense=%v",
			fz, fsol.Status, dense.Status)
	}
	if fsol.Status != StatusOptimal {
		return
	}
	if math.Abs(fsol.Objective-dense.Objective) > 1e-6 {
		t.Fatalf("%v\nfactorized/dense objective mismatch: factorized=%.12g dense=%.12g (Δ=%g)",
			fz, fsol.Objective, dense.Objective, math.Abs(fsol.Objective-dense.Objective))
	}
}

func (fz fuzzLP) String() string {
	return fmt.Sprintf("fuzzLP{sense:%v obj:%v hi:%v rows:%v rels:%v rhs:%v}",
		fz.sense, fz.obj, fz.hi, fz.rows, fz.rels, fz.rhs)
}

// ---------------------------------------------------------------------
// Reference solver: dense two-phase tableau simplex with Bland's rule.
// Shares no code with the package implementation — it keeps the whole
// constraint matrix dense, encodes variable upper bounds as explicit
// rows (the package handles them implicitly), and pivots by Bland's
// anti-cycling rule rather than steepest-edge/Dantzig pricing.
// ---------------------------------------------------------------------

type refResult int

const (
	refOptimal refResult = iota
	refInfeasible
	refIterLimit
)

const (
	refEps     = 1e-9
	refMaxIter = 5000
)

// refSolve returns the status and (for refOptimal) the objective value
// in the instance's own sense. Because every variable carries a finite
// upper bound, the feasible region is a polytope and unbounded rays
// cannot occur.
func refSolve(fz fuzzLP) (refResult, float64) {
	n := len(fz.obj)
	// Assemble the row system: the m fuzz constraints plus one x_j ≤ hi_j
	// row per variable. All x ≥ 0 implicitly.
	var rows [][]float64
	var rels []Rel
	var rhs []float64
	for i := range fz.rows {
		rows = append(rows, append([]float64(nil), fz.rows[i]...))
		rels = append(rels, fz.rels[i])
		rhs = append(rhs, fz.rhs[i])
	}
	for j := 0; j < n; j++ {
		bound := make([]float64, n)
		bound[j] = 1
		rows = append(rows, bound)
		rels = append(rels, LE)
		rhs = append(rhs, fz.hi[j])
	}
	m := len(rows)

	// Normalize to b ≥ 0 (flip rows with negative rhs), then add one
	// slack per ≤ row, one surplus per ≥ row, and an artificial for
	// every ≥/= row. Column layout: [structural | slack/surplus | artificial].
	for i := range rows {
		if rhs[i] < 0 {
			for j := range rows[i] {
				rows[i][j] = -rows[i][j]
			}
			rhs[i] = -rhs[i]
			switch rels[i] {
			case LE:
				rels[i] = GE
			case GE:
				rels[i] = LE
			}
		}
	}
	nSlack := 0
	for _, r := range rels {
		if r != EQ {
			nSlack++
		}
	}
	nArt := 0
	for _, r := range rels {
		if r != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	T := make([][]float64, m)
	basis := make([]int, m)
	artStart := n + nSlack
	slackAt, artAt := n, artStart
	for i := 0; i < m; i++ {
		T[i] = make([]float64, total+1)
		copy(T[i], rows[i])
		T[i][total] = rhs[i]
		switch rels[i] {
		case LE:
			T[i][slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case GE:
			T[i][slackAt] = -1
			slackAt++
			T[i][artAt] = 1
			basis[i] = artAt
			artAt++
		case EQ:
			T[i][artAt] = 1
			basis[i] = artAt
			artAt++
		}
	}

	// Phase 1: maximize -(sum of artificials); feasible iff optimum is 0.
	if nArt > 0 {
		c1 := make([]float64, total)
		for j := artStart; j < total; j++ {
			c1[j] = -1
		}
		st := refIterate(T, basis, c1, total)
		if st == refIterLimit {
			return refIterLimit, 0
		}
		sum := 0.0
		for i := range basis {
			if basis[i] >= artStart {
				sum += T[i][total]
			}
		}
		if sum > 1e-7 {
			return refInfeasible, 0
		}
		// Drive remaining (degenerate, zero-level) artificials out of
		// the basis; a row with no eligible pivot is redundant and its
		// basic artificial stays pinned at zero — then forbid artificial
		// columns from ever re-entering by zeroing them.
		for i := range basis {
			if basis[i] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(T[i][j]) > refEps {
					refPivot(T, basis, i, j)
					break
				}
			}
		}
		for i := range T {
			for j := artStart; j < total; j++ {
				T[i][j] = 0
			}
		}
	}

	// Phase 2: maximize the (sign-adjusted) objective over the
	// structural columns.
	c2 := make([]float64, total)
	sign := 1.0
	if fz.sense == Minimize {
		sign = -1
	}
	for j := 0; j < n; j++ {
		c2[j] = sign * fz.obj[j]
	}
	if st := refIterate(T, basis, c2, artStart); st == refIterLimit {
		return refIterLimit, 0
	}
	obj := 0.0
	for i, b := range basis {
		if b < n {
			obj += fz.obj[b] * T[i][total]
		}
	}
	return refOptimal, obj
}

// refIterate runs Bland's-rule simplex iterations maximizing c·x on the
// tableau, considering entering columns j < limit only. The caller
// guarantees boundedness, so a missing ratio-test row means numerical
// trouble and is treated as an iteration-limit skip.
func refIterate(T [][]float64, basis []int, c []float64, limit int) refResult {
	m := len(T)
	total := len(c)
	for iter := 0; iter < refMaxIter; iter++ {
		// Reduced costs r_j = c_j − c_B·T_j; Bland: smallest improving j.
		enter := -1
		for j := 0; j < limit; j++ {
			inBasis := false
			for _, b := range basis {
				if b == j {
					inBasis = true
					break
				}
			}
			if inBasis {
				continue
			}
			r := c[j]
			for i := 0; i < m; i++ {
				r -= c[basis[i]] * T[i][j]
			}
			if r > refEps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return refOptimal
		}
		// Ratio test; Bland tie-break on the smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			if T[i][enter] <= refEps {
				continue
			}
			ratio := T[i][total] / T[i][enter]
			if ratio < best-refEps || (ratio < best+refEps && (leave < 0 || basis[i] < basis[leave])) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return refIterLimit // bounded by construction; bail out conservatively
		}
		refPivot(T, basis, leave, enter)
	}
	return refIterLimit
}

// refPivot performs one Gauss-Jordan pivot on T[row][col] and updates
// the basis.
func refPivot(T [][]float64, basis []int, row, col int) {
	piv := T[row][col]
	for j := range T[row] {
		T[row][j] /= piv
	}
	for i := range T {
		if i == row || T[i][col] == 0 {
			continue
		}
		f := T[i][col]
		for j := range T[i] {
			T[i][j] -= f * T[row][j]
		}
	}
	basis[row] = col
}
