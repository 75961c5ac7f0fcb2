package spm

import (
	"math"
	"slices"
	"testing"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// The term-by-term builders below are the reference for lpBuild: each
// LP is laid out variable by variable and term by term into a refLP,
// which then hands lp its rows and its columns sorted by row, as the
// package built every SPM LP before the counted column builder.

// refLP is an LP written term by term: variables, rows and (row,
// column) terms in any order, a cell's terms accumulating.
type refLP struct {
	sense       lp.Sense
	obj, lo, hi []float64
	rel         []lp.Rel
	rhs         []float64
	terms       [][]refTerm // per column
}

type refTerm struct {
	row int
	val float64
}

func (r *refLP) addVariable(obj, lo, hi float64) int {
	r.obj, r.lo, r.hi = append(r.obj, obj), append(r.lo, lo), append(r.hi, hi)
	r.terms = append(r.terms, nil)
	return len(r.obj) - 1
}

func (r *refLP) addConstraint(rel lp.Rel, rhs float64) int {
	r.rel, r.rhs = append(r.rel, rel), append(r.rhs, rhs)
	return len(r.rel) - 1
}

func (r *refLP) addTerm(row, col int, v float64) {
	r.terms[col] = append(r.terms[col], refTerm{row, v})
}

// problem emits the LP: every row, then each column with its terms
// sorted by row, duplicates summed and exact zeros dropped.
func (r *refLP) problem(t *testing.T) *lp.Problem {
	p := lp.NewProblem(r.sense)
	for i, rel := range r.rel {
		if _, err := p.AddConstraint(rel, r.rhs[i], ""); err != nil {
			t.Fatal(err)
		}
	}
	for j, col := range r.terms {
		col = slices.Clone(col)
		slices.SortStableFunc(col, func(a, b refTerm) int { return a.row - b.row })
		var rows []int
		var vals []float64
		for k, e := range col {
			if k > 0 && col[k-1].row == e.row {
				vals[len(vals)-1] += e.val
				continue
			}
			rows, vals = append(rows, e.row), append(vals, e.val)
		}
		if _, err := p.AppendColumn(r.obj[j], r.lo[j], r.hi[j], rows, vals, ""); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// refRoutingVars adds one [0, 1] routing variable x[i][j] per request
// and candidate path, priced at the request's value, or at zero.
func refRoutingVars(p *refLP, inst *sched.Instance, priced bool) [][]int {
	xCols := make([][]int, inst.NumRequests())
	for i := range xCols {
		obj := 0.0
		if priced {
			obj = inst.Request(i).Value
		}
		xCols[i] = make([]int, inst.NumPaths(i))
		for j := range xCols[i] {
			xCols[i][j] = p.addVariable(obj, 0, 1)
		}
	}
	return xCols
}

// refRequestRows adds one row Σ_j x[i][j] rel 1 per request.
func refRequestRows(p *refLP, xCols [][]int, rel lp.Rel) {
	for i := range xCols {
		row := p.addConstraint(rel, 1)
		for _, col := range xCols[i] {
			p.addTerm(row, col, 1)
		}
	}
}

// refCapacityRows adds one row per (link, slot) pair that can carry
// load: Σ_{i,j} r_i·x[i][j] − c_e (when cCols is non-nil) ≤ rhs(e, t).
func refCapacityRows(p *refLP, inst *sched.Instance, xCols [][]int, cCols []int, rhs func(e, t int) float64) {
	net := inst.Network()
	slots := inst.Slots()
	type term struct {
		col  int
		rate float64
	}
	cells := make([][]term, net.NumLinks()*slots)
	for i := 0; i < inst.NumRequests(); i++ {
		r := inst.Request(i)
		for j, col := range xCols[i] {
			for _, e := range inst.Path(i, j).Links {
				for tt := r.Start; tt <= r.End; tt++ {
					cells[e*slots+tt] = append(cells[e*slots+tt], term{col, r.Rate})
				}
			}
		}
	}
	for e := 0; e < net.NumLinks(); e++ {
		for tt := 0; tt < slots; tt++ {
			terms := cells[e*slots+tt]
			if len(terms) == 0 {
				continue
			}
			row := p.addConstraint(lp.LE, rhs(e, tt))
			for _, tm := range terms {
				p.addTerm(row, tm.col, tm.rate)
			}
			if cCols != nil {
				p.addTerm(row, cCols[e], -1)
			}
		}
	}
}

// refBuild lays out the SPM LP of the given kind term by term.
func refBuild(t *testing.T, inst *sched.Instance, kind lpKind, caps [][]float64) *lp.Problem {
	net := inst.Network()
	sense, rel := lp.Maximize, lp.LE
	if kind == rlLP {
		sense, rel = lp.Minimize, lp.EQ
	}
	p := &refLP{sense: sense}
	xCols := refRoutingVars(p, inst, kind != rlLP)
	var cCols []int
	if kind != blLP {
		cCols = make([]int, net.NumLinks())
		for e := range cCols {
			price := net.Link(e).Price
			if kind == spmLP {
				price = -price
			}
			cCols[e] = p.addVariable(price, 0, math.Inf(1))
		}
	}
	refRequestRows(p, xCols, rel)
	refCapacityRows(p, inst, xCols, cCols, func(e, tt int) float64 {
		if caps == nil {
			return 0
		}
		return caps[e][tt]
	})
	return p.problem(t)
}

// TestBuildMatchesTermByTerm: every SPM LP the counted column builder
// lays out — RL-SPM, BL-SPM as the BL model builds it (capacities 0),
// SPM, and BL-SPM with per-slot capacities — is the term-by-term build
// bit for bit: sense, objective, bounds, row relations, right-hand
// sides and the compressed matrix. One builder and one LP take every
// build in turn, so each is also a rebuild over another shape's storage.
func TestBuildMatchesTermByTerm(t *testing.T) {
	insts := []struct {
		name string
		inst *sched.Instance
	}{
		{"SUB-B4/K60", subB4Instance(t, genRequests(t, wan.SubB4(), 60, 3))},
		{"B4/K200", b4Instance(t, 200, 5)},
		{"SUB-B4/K25", subB4Instance(t, genRequests(t, wan.SubB4(), 25, 11))},
		{"B4/K40", b4Instance(t, 40, 13)},
	}
	var (
		p lp.Problem
		b lpBuild
	)
	for _, c := range insts {
		rng := stats.NewRNG(int64(c.inst.NumRequests()))
		caps := make([][]float64, c.inst.Network().NumLinks())
		for e := range caps {
			caps[e] = make([]float64, c.inst.Slots())
			for tt := range caps[e] {
				caps[e][tt] = float64(rng.Intn(6)) + 0.5*rng.Float64()
			}
		}
		for _, lpc := range []struct {
			name string
			kind lpKind
			caps [][]float64
		}{
			{"RL-SPM", rlLP, nil},
			{"BL-SPM", blLP, nil},
			{"SPM", spmLP, nil},
			{"BL-SPM/caps", blLP, caps},
		} {
			if err := b.build(&p, c.inst, lpc.kind, lpc.caps); err != nil {
				t.Fatal(err)
			}
			ref := refBuild(t, c.inst, lpc.kind, lpc.caps)
			if d := p.Diff(ref); d != "" {
				t.Errorf("%s %s: built LP differs from the term-by-term build: %s", c.name, lpc.name, d)
			}
		}
	}
}

func b4Instance(t *testing.T, k int, seed int64) *sched.Instance {
	t.Helper()
	inst, err := sched.NewInstance(wan.B4(), 12, genRequests(t, wan.B4(), k, seed), 3)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
