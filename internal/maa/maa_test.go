package maa

import (
	"errors"
	"math"
	"testing"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

func instance(t *testing.T, net *wan.Network, k int, seed int64) *sched.Instance {
	t.Helper()
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := sched.NewInstance(net, demand.DefaultSlots, reqs, sched.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestSolveServesEveryRequest(t *testing.T) {
	inst := instance(t, wan.SubB4(), 40, 1)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(1)})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Schedule.NumAccepted(); got != 40 {
		t.Fatalf("served %d of 40 requests", got)
	}
}

func TestCostAtLeastRelaxation(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 2)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost < res.Relaxed.Cost-1e-6 {
		t.Fatalf("rounded cost %v below relaxed lower bound %v", res.Cost, res.Relaxed.Cost)
	}
	if math.Abs(res.Cost-res.Schedule.Cost()) > 1e-9 {
		t.Fatalf("result cost %v != schedule cost %v", res.Cost, res.Schedule.Cost())
	}
}

func TestChargedCoversPeakLoad(t *testing.T) {
	inst := instance(t, wan.B4(), 60, 3)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.FeasibleUnder(res.Charged); err != nil {
		t.Fatalf("schedule infeasible under its own charged bandwidth: %v", err)
	}
}

func TestBestOfRoundsNoWorseThanSingle(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 4)
	single, err := Solve(inst, Options{RNG: stats.NewRNG(9)})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Solve(inst, Options{RNG: stats.NewRNG(9), Rounds: 20})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cost > single.Cost+1e-9 {
		t.Fatalf("best-of-20 cost %v worse than single-round cost %v", multi.Cost, single.Cost)
	}
}

func TestRoundingDeterministicGivenRNG(t *testing.T) {
	inst := instance(t, wan.SubB4(), 20, 5)
	a, err := Solve(inst, Options{RNG: stats.NewRNG(42)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(inst, Options{RNG: stats.NewRNG(42)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.NumRequests(); i++ {
		if a.Schedule.Choice(i) != b.Schedule.Choice(i) {
			t.Fatalf("request %d: choices differ across identical seeds", i)
		}
	}
}

func TestEmptyInstanceRejected(t *testing.T) {
	inst, err := sched.NewInstance(wan.SubB4(), 12, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Solve(inst, Options{RNG: stats.NewRNG(1)}); !errors.Is(err, ErrNoRequests) {
		t.Fatalf("err = %v, want ErrNoRequests", err)
	}
}

func TestMissingRNGRejected(t *testing.T) {
	inst := instance(t, wan.SubB4(), 5, 6)
	if _, err := Solve(inst, Options{}); err == nil {
		t.Fatal("want error for missing RNG")
	}
}

// TestRoundingRatioReasonable mirrors Fig. 4b's claim: the randomized
// rounding cost stays within a modest factor of the fractional optimum.
func TestRoundingRatioReasonable(t *testing.T) {
	inst := instance(t, wan.SubB4(), 50, 7)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(7), Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Cost / res.Relaxed.Cost
	// The paper reports ratios below 1.2 for single roundings against
	// the integral optimum; against the (smaller) fractional bound we
	// allow more headroom but still require the same order.
	if ratio > 2.0 {
		t.Fatalf("rounding ratio %v unexpectedly large", ratio)
	}
}

func TestAlphaAndRatios(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 11)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(11)})
	if err != nil {
		t.Fatal(err)
	}
	alpha := res.Alpha()
	if alpha <= 0 {
		t.Fatal("expected positive alpha on a loaded network")
	}
	// Alpha is the smallest positive fractional bandwidth.
	for _, c := range res.Relaxed.C {
		if c > 1e-9 && c < alpha-1e-12 {
			t.Fatalf("alpha %v not minimal: found %v", alpha, c)
		}
	}
	if got, want := res.CeilingRatio(), (alpha+1)/alpha; math.Abs(got-want) > 1e-12 {
		t.Fatalf("ceiling ratio %v, want %v", got, want)
	}
	tr := res.TheoreticalRatio(inst.Network().NumLinks())
	if tr < res.CeilingRatio() {
		t.Fatalf("theoretical ratio %v below ceiling ratio %v", tr, res.CeilingRatio())
	}
	// The guarantee must hold in practice against the LP lower bound.
	if res.Cost/res.Relaxed.Cost > tr {
		t.Fatalf("measured ratio %v exceeds theoretical bound %v", res.Cost/res.Relaxed.Cost, tr)
	}
}

func TestTheoreticalRatioDegenerate(t *testing.T) {
	inst := instance(t, wan.SubB4(), 5, 12)
	res, err := Solve(inst, Options{RNG: stats.NewRNG(12)})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.TheoreticalRatio(2), 1) {
		t.Fatal("tiny networks must yield a vacuous bound")
	}
}

// TestPreDrawnUniformsMatchRNG checks the Uniforms escape hatch used by
// the Fig. 4a sweep: feeding Solve the block an identical RNG would
// have produced must yield the identical result.
func TestPreDrawnUniformsMatchRNG(t *testing.T) {
	inst := instance(t, wan.SubB4(), 30, 21)
	const rounds = 4
	viaRNG, err := Solve(inst, Options{RNG: stats.NewRNG(21), Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	// Over-provision the block: Solve must consume only rounds×drawn.
	src := stats.NewRNG(21)
	block := make([]float64, rounds*inst.NumRequests())
	for i := range block {
		block[i] = src.Float64()
	}
	viaBlock, err := Solve(inst, Options{Uniforms: block, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if viaBlock.Cost != viaRNG.Cost {
		t.Fatalf("cost via Uniforms %v != via RNG %v", viaBlock.Cost, viaRNG.Cost)
	}
	for i := 0; i < inst.NumRequests(); i++ {
		if viaBlock.Schedule.Choice(i) != viaRNG.Schedule.Choice(i) {
			t.Fatalf("request %d: choice differs between Uniforms and RNG paths", i)
		}
	}
}

func TestUniformsTooShortRejected(t *testing.T) {
	inst := instance(t, wan.SubB4(), 10, 22)
	if _, err := Solve(inst, Options{Uniforms: []float64{0.5}, Rounds: 8}); err == nil {
		t.Fatal("want error for an undersized uniform block")
	}
}
