//go:build !race

package core

import (
	"runtime"
	"testing"

	"metis/internal/sched"
	"metis/internal/wan"
)

// solveAlloc returns the bytes one Solve of inst allocates.
func solveAlloc(t *testing.T, inst *sched.Instance, cfg Config) uint64 {
	t.Helper()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := Solve(inst, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestSolveAllocCeiling: once the process has solved an instance of a
// shape, a Solve of that shape allocates its Result and one basis handle —
// about 9.1 kB at B4 K=1000, θ = 4, and 1.8 kB at K=100 (amd64, Go
// 1.24). Every one of five Solves in a row is checked, since the
// storage they hand on survives garbage collections. The ceilings leave
// room for the Result only: building the BL-SPM model term by term once
// per Solve allocated 5.9 MB at K=1000, rebuilding every LP each round
// 31.2 MB. The race detector's instrumentation allocates too, so the
// file is built without it.
func TestSolveAllocCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		k       int
		seed    int64
		ceiling uint64
	}{
		{"B4/K1000", 1000, 1000, 64 << 10},
		{"B4/K100", 100, 1001, 16 << 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			inst := instance(t, wan.B4(), c.k, c.seed)
			cfg := Config{Theta: 4, Seed: 1}
			solveAlloc(t, inst, cfg)
			for i := range 5 {
				got := solveAlloc(t, inst, cfg)
				t.Logf("solve %d allocated %.1f kB", i, float64(got)/1e3)
				if got > c.ceiling {
					t.Errorf("solve %d allocated %.1f kB, ceiling %.1f kB", i, float64(got)/1e3, float64(c.ceiling)/1e3)
				}
			}
		})
	}
}

// TestSolveAllocPerRound: the rounds of a Solve allocate nothing of
// their own. A θ = 8 Solve runs eight rounds on this instance where a
// θ = 4 Solve runs four, and allocates within 64 kB of it (0.3 kB more:
// four more RoundStats in the Result).
func TestSolveAllocPerRound(t *testing.T) {
	inst := instance(t, wan.B4(), 1000, 1000)
	solveAlloc(t, inst, Config{Theta: 8, Seed: 1})
	four := solveAlloc(t, inst, Config{Theta: 4, Seed: 1})
	eight := solveAlloc(t, inst, Config{Theta: 8, Seed: 1})
	t.Logf("θ=4 %.1f kB, θ=8 %.1f kB", float64(four)/1e3, float64(eight)/1e3)
	if eight > four+64<<10 {
		t.Errorf("θ=8 solve allocated %.1f kB, θ=4 %.1f kB: more than 64 kB apart", float64(eight)/1e3, float64(four)/1e3)
	}
}
