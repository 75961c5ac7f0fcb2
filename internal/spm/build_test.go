package spm

import (
	"math"
	"testing"

	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// The term-by-term builders below are the reference for lpBuild: each
// LP is laid out variable by variable and term by term through
// AddVariable, AddConstraint and AddTerm, and lp merges the terms into
// its compressed matrix on the first solve, as the package built every
// SPM LP before the counted column builder.

// refRoutingVars adds one [0, 1] routing variable x[i][j] per request
// and candidate path, priced at the request's value, or at zero.
func refRoutingVars(t *testing.T, p *lp.Problem, inst *sched.Instance, priced bool) [][]int {
	xCols := make([][]int, inst.NumRequests())
	for i := range xCols {
		obj := 0.0
		if priced {
			obj = inst.Request(i).Value
		}
		xCols[i] = make([]int, inst.NumPaths(i))
		for j := range xCols[i] {
			col, err := p.AddVariable(obj, 0, 1, "x")
			if err != nil {
				t.Fatal(err)
			}
			xCols[i][j] = col
		}
	}
	return xCols
}

// refRequestRows adds one row Σ_j x[i][j] rel 1 per request.
func refRequestRows(t *testing.T, p *lp.Problem, xCols [][]int, rel lp.Rel) {
	for i := range xCols {
		row, err := p.AddConstraint(rel, 1, "request")
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range xCols[i] {
			if err := p.AddTerm(row, col, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// refCapacityRows adds one row per (link, slot) pair that can carry
// load: Σ_{i,j} r_i·x[i][j] − c_e (when cCols is non-nil) ≤ rhs(e, t).
func refCapacityRows(t *testing.T, p *lp.Problem, inst *sched.Instance, xCols [][]int, cCols []int, rhs func(e, t int) float64) {
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
			row, err := p.AddConstraint(lp.LE, rhs(e, tt), "cap")
			if err != nil {
				t.Fatal(err)
			}
			for _, tm := range terms {
				if err := p.AddTerm(row, tm.col, tm.rate); err != nil {
					t.Fatal(err)
				}
			}
			if cCols != nil {
				if err := p.AddTerm(row, cCols[e], -1); err != nil {
					t.Fatal(err)
				}
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
	p := lp.NewProblem(sense)
	xCols := refRoutingVars(t, p, inst, kind != rlLP)
	var cCols []int
	if kind != blLP {
		cCols = make([]int, net.NumLinks())
		for e := range cCols {
			price := net.Link(e).Price
			if kind == spmLP {
				price = -price
			}
			col, err := p.AddVariable(price, 0, math.Inf(1), "c")
			if err != nil {
				t.Fatal(err)
			}
			cCols[e] = col
		}
	}
	refRequestRows(t, p, xCols, rel)
	refCapacityRows(t, p, inst, xCols, cCols, func(e, tt int) float64 {
		if caps == nil {
			return 0
		}
		return caps[e][tt]
	})
	return p
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
