//go:build !race

package core

import (
	"runtime"
	"testing"

	"metis/internal/wan"
)

// solveAllocCeiling bounds the bytes one B4 K=1000, θ = 4 Solve
// allocates once the process has solved before (its storage comes from
// the pool): about 15% above the 5.9 MB measured (amd64, Go 1.24) with
// MAA's RL-SPM LP, its simplex arrays and TAA's Chernoff estimator
// reused across rounds and Solves. Rebuilding them every round
// allocated 31.2 MB.
const solveAllocCeiling = 6.8e6

// TestSolveAllocCeiling: a Solve allocates its working storage about
// once, not once per round. The race detector's instrumentation
// allocates too, so the file is built without it.
func TestSolveAllocCeiling(t *testing.T) {
	inst := instance(t, wan.B4(), 1000, 1000)
	cfg := Config{Theta: 4, Seed: 1}
	if _, err := Solve(inst, cfg); err != nil {
		t.Fatal(err)
	}
	// The least of three solves: a collection between two solves may
	// empty the pools, and the solve after it allocates its storage anew.
	least := uint64(1<<63 - 1)
	var m0, m1 runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&m0)
		if _, err := Solve(inst, cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		least = min(least, m1.TotalAlloc-m0.TotalAlloc)
	}
	t.Logf("B4 K=1000 θ=4 solve allocated %.2f MB", float64(least)/1e6)
	if float64(least) > solveAllocCeiling {
		t.Errorf("solve allocated %.2f MB, ceiling %.2f MB", float64(least)/1e6, solveAllocCeiling/1e6)
	}
}
