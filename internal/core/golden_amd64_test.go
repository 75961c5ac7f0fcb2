package core

import (
	"math"
	"testing"

	"metis/internal/obs"
	"metis/internal/wan"
)

// TestSolveGoldenBits pins Solve's exact output on four instances: the
// profit's bit pattern, the accepted count and the dual and primal
// simplex pivots the solve ran (the lp.pivots delta). A solver change
// that claims to keep the pivot sequence must keep all three. The test
// is amd64-only: Go fuses multiply-adds on arm64, which moves the last
// bits of every LP.
func TestSolveGoldenBits(t *testing.T) {
	cases := []struct {
		name    string
		net     *wan.Network
		genSeed int64
		k       int
		cfg     Config
		bits    uint64
		acc     int
		pivots  int64
		long    bool
	}{
		{"SUB-B4/K600", wan.SubB4(), 1, 600, Config{Seed: 1}, 0x406156b397b74aca, 569, 5732, false},
		{"SUB-B4/K2400", wan.SubB4(), 1, 2400, Config{Seed: 1}, 0x4081f44b82b40140, 2330, 22352, true},
		{"B4/K1000", wan.B4(), 1000, 1000, Config{Theta: 4, Seed: 1}, 0x4086df1f47deb852, 932, 7140, false},
		{"B4/K100", wan.B4(), 1001, 100, Config{Theta: 4, Seed: 1}, 0x40405dc996e888d8, 33, 591, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("K=2400 solve skipped under -short")
			}
			inst := instance(t, c.net, c.k, c.genSeed)
			// No test in this package runs in parallel, so the counter
			// delta is this solve's alone.
			before := obs.Snapshot()["lp.pivots"]
			res, err := Solve(inst, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			pivots := int64(obs.Snapshot()["lp.pivots"] - before)
			if got := math.Float64bits(res.Profit); got != c.bits {
				t.Errorf("profit %v (bits %#x), want bits %#x", res.Profit, got, c.bits)
			}
			if got := res.Schedule.NumAccepted(); got != c.acc {
				t.Errorf("accepted %d, want %d", got, c.acc)
			}
			if pivots != c.pivots {
				t.Errorf("lp.pivots delta %d, want %d", pivots, c.pivots)
			}
		})
	}
}
