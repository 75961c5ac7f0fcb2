package chernoff

import (
	"math"
	"testing"

	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/wan"
)

// expand broadcasts per-link caps to the (link, slot) matrix form.
func expand(inst *sched.Instance, caps []int) [][]float64 {
	out := make([][]float64, len(caps))
	for e, c := range caps {
		out[e] = make([]float64, inst.Slots())
		for t := range out[e] {
			out[e][t] = float64(c)
		}
	}
	return out
}

func estimatorFixture(t *testing.T, k int, seed int64) (*sched.Instance, [][]float64, [][]float64) {
	t.Helper()
	net := wan.SubB4()
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
	// A simple fractional solution: everything on the cheapest path.
	xhat := make([][]float64, inst.NumRequests())
	for i := range xhat {
		xhat[i] = make([]float64, inst.NumPaths(i))
		xhat[i][0] = 1
	}
	return inst, xhat, expand(inst, inst.UniformCaps(10))
}

func TestNewEstimatorValidation(t *testing.T) {
	inst, xhat, caps := estimatorFixture(t, 5, 1)
	if _, err := NewEstimator(inst, [][]float64{{1}}, xhat, 0.5); err == nil {
		t.Error("want error for wrong caps shape")
	}
	if _, err := NewEstimator(inst, caps, xhat[:2], 0.5); err == nil {
		t.Error("want error for short xhat")
	}
	if _, err := NewEstimator(inst, caps, xhat, 0); err == nil {
		t.Error("want error for µ = 0")
	}
	if _, err := NewEstimator(inst, caps, xhat, 1); err == nil {
		t.Error("want error for µ = 1")
	}
}

func TestURootBelowOneAtPaperScale(t *testing.T) {
	// With the paper's parameter choices the initial estimator value is
	// provably below 1 — that is exactly what makes the tree walk find
	// a good leaf.
	inst, xhat, caps := estimatorFixture(t, 30, 2)
	mu, err := SelectMu(10/demand.DefaultRateHi*0.9, inst.Slots(), inst.Network().NumLinks())
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewEstimator(inst, caps, xhat, mu)
	if err != nil {
		t.Fatal(err)
	}
	if u := est.URoot(); u >= 1 {
		t.Fatalf("initial u_root = %v, want < 1", u)
	}
}

func TestCandidateUMatchesDecide(t *testing.T) {
	inst, xhat, caps := estimatorFixture(t, 10, 3)
	est, err := NewEstimator(inst, caps, xhat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.NumRequests(); i++ {
		// Candidate value must equal the actual value after deciding.
		want := est.CandidateU(i, 0)
		est.Decide(i, 0)
		if got := est.URoot(); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("request %d: CandidateU %v != post-Decide URoot %v", i, want, got)
		}
	}
}

func TestMinimumCandidateNeverIncreasesURoot(t *testing.T) {
	// Conditional expectations: the best child of any node is at most
	// the node's value, so greedy descent keeps u_root non-increasing.
	inst, xhat, caps := estimatorFixture(t, 25, 4)
	est, err := NewEstimator(inst, caps, xhat, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	u := est.URoot()
	for i := 0; i < inst.NumRequests(); i++ {
		bestOpt, bestU := Decline, est.CandidateU(i, Decline)
		for j := 0; j < inst.NumPaths(i); j++ {
			if cu := est.CandidateU(i, j); cu < bestU {
				bestOpt, bestU = j, cu
			}
		}
		if bestU > u+1e-9*(1+math.Abs(u)) {
			t.Fatalf("request %d: best candidate %v above current %v", i, bestU, u)
		}
		est.Decide(i, bestOpt)
		u = est.URoot()
	}
}

func TestDeclineEverythingDropsCapacityTerms(t *testing.T) {
	inst, xhat, caps := estimatorFixture(t, 8, 5)
	est, err := NewEstimator(inst, caps, xhat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inst.NumRequests(); i++ {
		est.Decide(i, Decline)
	}
	// With everything declined, no load exists: every capacity term is
	// just e^{−λc'} ≤ 1 and the revenue term reflects zero revenue.
	u := est.URoot()
	if math.IsNaN(u) || u < 0 {
		t.Fatalf("u_root = %v after declining all", u)
	}
}

func TestIBValueScalesBack(t *testing.T) {
	inst, xhat, caps := estimatorFixture(t, 20, 6)
	est, err := NewEstimator(inst, caps, xhat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if est.is <= 0 {
		t.Fatal("expected positive scaled revenue")
	}
	var vmax float64
	for i := 0; i < inst.NumRequests(); i++ {
		if v := inst.Request(i).Value; v > vmax {
			vmax = v
		}
	}
	if got, want := est.IBValue(), est.ib*vmax; math.Abs(got-want) > 1e-12 {
		t.Fatalf("IBValue = %v, want %v", got, want)
	}
	if est.Mu() != 0.5 {
		t.Fatalf("Mu = %v, want 0.5", est.Mu())
	}
}

func TestZeroValueWorkloadSupported(t *testing.T) {
	// All-zero values: the revenue term disappears but capacity terms
	// still guide feasibility.
	net := wan.SubB4()
	reqs := []demand.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3, Rate: 0.5, Value: 0},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 3, Rate: 0.4, Value: 0},
	}
	inst, err := sched.NewInstance(net, 12, reqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	xhat := make([][]float64, 2)
	for i := range xhat {
		xhat[i] = make([]float64, inst.NumPaths(i))
		xhat[i][0] = 1
	}
	est, err := NewEstimator(inst, expand(inst, inst.UniformCaps(1)), xhat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if est.is != 0 {
		t.Fatalf("IS = %v, want 0", est.is)
	}
	if u := est.URoot(); math.IsNaN(u) {
		t.Fatal("u_root is NaN for zero-value workload")
	}
}
