package spm

import (
	"testing"

	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/sched"
	"metis/internal/wan"
)

// offlineInstance builds the B4 instance that offline-plan's seed-1 run
// solves at size k: generator seed 1000 for its K=1000 solve, 1001 for
// its first K=100 solve.
func offlineInstance(b *testing.B, k int, genSeed int64) *sched.Instance {
	b.Helper()
	net := wan.B4()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(genSeed))
	if err != nil {
		b.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := sched.NewInstance(net, demand.DefaultSlots, reqs, sched.DefaultPathsPerRequest)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// benchRLRelax times one cold RLSolver.Solve per op, the relaxation
// MAA solves every Metis round: the LP build and the cold simplex.
func benchRLRelax(b *testing.B, k int, genSeed int64) {
	inst := offlineInstance(b, k, genSeed)
	var r RLSolver
	defer r.Release()
	if _, err := r.Solve(inst, lp.Options{}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Solve(inst, lp.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRLRelaxK100(b *testing.B)  { benchRLRelax(b, 100, 1001) }
func BenchmarkRLRelaxK1000(b *testing.B) { benchRLRelax(b, 1000, 1000) }
