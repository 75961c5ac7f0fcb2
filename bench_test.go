package metis_test

// Component benchmarks of the public solvers (run with
// `go test -run xxx -bench . -benchmem`): the profiling entry points
// for the offline pipeline. The paper's figures are regenerated by
// `go run ./cmd/metisbench -fig <id>`, whose -json output records each
// experiment's ns/op and allocations.

import (
	"io"
	"testing"

	"metis"
	"metis/internal/obs"
	"metis/internal/spm"
)

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
	b.ReportAllocs()
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
	b.ReportAllocs()
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
