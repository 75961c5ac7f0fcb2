package metis_test

// One benchmark per evaluation figure of the paper (run with
// `go test -bench=. -benchmem`): each regenerates its figure at
// QuickConfig scale and reports the headline quantity as a custom
// metric, so the full paper evaluation is reproducible straight from
// the Go bench harness. `go run ./cmd/metisbench -config default`
// produces the paper-scale tables.

import (
	"io"
	"testing"

	"metis"
	"metis/internal/exp"
	"metis/internal/obs"
	"metis/internal/spm"
)

func benchFigure(b *testing.B, id string, metric func([]*exp.Figure) (string, float64)) {
	b.Helper()
	cfg := exp.QuickConfig()
	for i := 0; i < b.N; i++ {
		figs, err := exp.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if metric != nil {
			name, v := metric(figs)
			b.ReportMetric(v, name)
		}
	}
}

// lastRatio reports series a over series b in the last row of fig.
func lastRatio(figs []*exp.Figure, figID, a, b string) float64 {
	for _, f := range figs {
		if f.ID != figID {
			continue
		}
		r := len(f.X) - 1
		va, _ := f.Value(r, a)
		vb, _ := f.Value(r, b)
		if vb == 0 {
			return 0
		}
		return va / vb
	}
	return 0
}

func BenchmarkFig3aProfitVsOptimal(b *testing.B) {
	benchFigure(b, "fig3a", func(figs []*exp.Figure) (string, float64) {
		return "metis/acceptall", lastRatio(figs, "fig3a", "Metis", "OPT(RL-SPM)")
	})
}

func BenchmarkFig3bAcceptedVsOptimal(b *testing.B) {
	benchFigure(b, "fig3b", func(figs []*exp.Figure) (string, float64) {
		return "metis/all-accepted", lastRatio(figs, "fig3b", "Metis", "OPT(RL-SPM)")
	})
}

func BenchmarkFig3cUtilizationVsOptimal(b *testing.B) {
	benchFigure(b, "fig3c", func(figs []*exp.Figure) (string, float64) {
		return "metisavg/rlavg", lastRatio(figs, "fig3c", "Metis avg", "OPT(RL)avg")
	})
}

func BenchmarkFig4aMAACost(b *testing.B) {
	benchFigure(b, "fig4a", func(figs []*exp.Figure) (string, float64) {
		return "mincost/maa", lastRatio(figs, "fig4a", "MinCost", "MAA")
	})
}

func BenchmarkFig4bRoundingRatio(b *testing.B) {
	benchFigure(b, "fig4b", func(figs []*exp.Figure) (string, float64) {
		f := figs[0]
		v, _ := f.Value(len(f.X)-1, "mean")
		return "mean-ratio", v
	})
}

func BenchmarkFig4cTAARevenue(b *testing.B) {
	benchFigure(b, "fig4c", func(figs []*exp.Figure) (string, float64) {
		return "taa/amoeba", lastRatio(figs, "fig4c", "TAA", "Amoeba")
	})
}

func BenchmarkFig4dTAAAccepted(b *testing.B) {
	benchFigure(b, "fig4d", func(figs []*exp.Figure) (string, float64) {
		return "taa/amoeba", lastRatio(figs, "fig4d", "TAA", "Amoeba")
	})
}

func BenchmarkFig5aMetisProfit(b *testing.B) {
	benchFigure(b, "fig5a", func(figs []*exp.Figure) (string, float64) {
		return "metis/ecoflow", lastRatio(figs, "fig5a", "Metis", "EcoFlow")
	})
}

func BenchmarkFig5bMetisAccepted(b *testing.B) {
	benchFigure(b, "fig5b", func(figs []*exp.Figure) (string, float64) {
		return "metis/ecoflow", lastRatio(figs, "fig5b", "Metis", "EcoFlow")
	})
}

func BenchmarkFig5cMetisUtilization(b *testing.B) {
	benchFigure(b, "fig5c", func(figs []*exp.Figure) (string, float64) {
		return "metis/ecoflow", lastRatio(figs, "fig5c", "Metis", "EcoFlow")
	})
}

// Ablation benches for the design knobs DESIGN.md calls out.

func BenchmarkAblationTheta(b *testing.B)   { benchFigure(b, "ablation-theta", nil) }
func BenchmarkAblationTauStep(b *testing.B) { benchFigure(b, "ablation-tau", nil) }
func BenchmarkAblationPathCount(b *testing.B) {
	benchFigure(b, "ablation-paths", nil)
}
func BenchmarkAblationRounding(b *testing.B) { benchFigure(b, "ablation-rounding", nil) }

func BenchmarkExtensionMultiCycle(b *testing.B) {
	benchFigure(b, "ext-multicycle", func(figs []*exp.Figure) (string, float64) {
		return "metis/acceptall", lastRatio(figs, "ext-multicycle", "Metis", "Accept-all")
	})
}

func BenchmarkExtensionResilience(b *testing.B) {
	benchFigure(b, "ext-resilience", func(figs []*exp.Figure) (string, float64) {
		f := figs[0]
		v, _ := f.Value(len(f.X)-1, "avg retention")
		return "avg-retention", v
	})
}

func BenchmarkExtensionOnline(b *testing.B) {
	benchFigure(b, "ext-online", func(figs []*exp.Figure) (string, float64) {
		return "greedy/offline", lastRatio(figs, "ext-online", "Greedy", "Offline")
	})
}

// Component micro-benchmarks.

func benchInstance(b *testing.B, k int) *metis.Instance {
	b.Helper()
	net := metis.B4()
	reqs, err := metis.GenerateWorkload(net, k, 1)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

func BenchmarkMetisSolveK100(b *testing.B) {
	inst := benchInstance(b, 100)
	b.ResetTimer()
	start := lpIters()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((lpIters()-start)/float64(b.N), "lp-iters/op")
}

// lpIters reads the global simplex-iteration counter so the solve
// benchmarks can report iterations alongside ns/op: a pricing change
// moves the iteration count, not just the per-iteration cost, and the
// delta makes that visible per benchmark run.
func lpIters() float64 { return obs.Snapshot()["lp.iters"] }

// BenchmarkMetisSolveK1000 fills the gap between the K100 latency
// benchmark and the ~10-minute K10000 existence proof: big enough that
// the working problems are thousands of rows (pricing quality dominates
// wall-clock), small enough to run on every bench invocation.
func BenchmarkMetisSolveK1000(b *testing.B) {
	inst := benchInstance(b, 1000)
	b.ResetTimer()
	start := lpIters()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((lpIters()-start)/float64(b.N), "lp-iters/op")
}

// BenchmarkMetisSolveK10000 is the scale target the LU-factorized basis
// exists for: a four-orders-of-magnitude request count whose working
// problems have tens of thousands of rows. A dense m×m basis inverse at
// that size would need multiple gigabytes and O(m²) work per pivot;
// the row count selects the sparse LU representation, which keeps memory
// proportional to factor fill. The benchmark's job is to complete —
// it is the existence proof for the K=10⁴ regime. Run it manually with
// -benchtime=1x -timeout 0 (~10 min single-core); -short skips it and
// CI does not run it.
func BenchmarkMetisSolveK10000(b *testing.B) {
	if testing.Short() {
		b.Skip("skipping K=10000 instance in -short mode")
	}
	inst := benchInstance(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetisSolveK100Traced is the same solve with a live JSONL
// tracer attached (sink discarded): the cost of span emission on every
// LP/MAA/TAA/round boundary, benchmarked so the tracing overhead stays
// visible next to the untraced number.
func BenchmarkMetisSolveK100Traced(b *testing.B) {
	inst := benchInstance(b, 100)
	tracer := obs.NewJSONLTracer(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1, Tracer: tracer}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetisSolveK100Cold is the same solve with ColdLP set: no
// incremental relaxation models, every LP from scratch — the seed
// code path, kept benchmarked so the warm-start win stays visible.
func BenchmarkMetisSolveK100Cold(b *testing.B) {
	inst := benchInstance(b, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1, ColdLP: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactSPMWarmK32 is the OPT(SPM) branch & bound with per-node
// simplex warm starts. The reported node count keeps the per-node cost
// separable from the size of the tree.
func BenchmarkExactSPMWarmK32(b *testing.B) {
	inst := benchInstance(b, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := spm.SolveExactSPM(inst, spm.ExactOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Proven {
			b.Fatal("exact SPM did not prove optimality")
		}
		b.ReportMetric(float64(res.Nodes), "nodes")
	}
}

func BenchmarkMAASolveK200(b *testing.B) {
	inst := benchInstance(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.SolveMAA(inst, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTAASolveK200(b *testing.B) {
	inst := benchInstance(b, 200)
	caps := inst.UniformCaps(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.SolveTAA(inst, caps); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEcoFlowK200(b *testing.B) {
	inst := benchInstance(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.EcoFlow(inst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAmoebaK200(b *testing.B) {
	inst := benchInstance(b, 200)
	caps := inst.UniformCaps(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metis.Amoeba(inst, caps); err != nil {
			b.Fatal(err)
		}
	}
}
