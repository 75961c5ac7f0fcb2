package metis_test

import (
	"context"
	"fmt"
	"time"

	"metis"
)

// ExampleSolve runs the Metis framework end to end on a tiny custom
// network.
func ExampleSolve() {
	dcs := []metis.DC{
		{ID: 0, Name: "fra", Region: metis.RegionEurope},
		{ID: 1, Name: "ams", Region: metis.RegionEurope},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 2},
		{From: 1, To: 0, Price: 2},
	}
	net, _ := metis.NewNetwork("demo", dcs, links)

	reqs := []metis.Request{
		// Worth far more than one bandwidth unit for the cycle: accept.
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 6},
		// Worth far less than the extra unit it would force: decline.
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.9, Value: 0.1},
	}
	inst, _ := metis.NewInstance(net, metis.DefaultSlots, reqs, 1)
	res, _ := metis.Solve(inst, metis.Config{Seed: 1})

	fmt.Printf("accepted=%d profit=%.1f\n", res.Schedule.NumAccepted(), res.Profit)
	// Output: accepted=1 profit=4.0
}

// ExampleSolveTAA maximizes revenue under fixed link capacity.
func ExampleSolveTAA() {
	dcs := []metis.DC{
		{ID: 0, Name: "a", Region: metis.RegionEurope},
		{ID: 1, Name: "b", Region: metis.RegionEurope},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 1},
		{From: 1, To: 0, Price: 1},
	}
	net, _ := metis.NewNetwork("demo", dcs, links)

	// Two rivals for a single 1-unit link; only the valuable one fits.
	reqs := []metis.Request{
		{ID: 0, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.8, Value: 1},
		{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.8, Value: 9},
	}
	inst, _ := metis.NewInstance(net, metis.DefaultSlots, reqs, 1)
	res, _ := metis.SolveTAA(inst, inst.UniformCaps(1))

	fmt.Printf("revenue=%.0f accepted=%d\n", res.Revenue, res.Schedule.NumAccepted())
	// Output: revenue=9 accepted=1
}

// ExampleGenerateWorkload shows the deterministic workload generator.
func ExampleGenerateWorkload() {
	net := metis.SubB4()
	reqs, _ := metis.GenerateWorkload(net, 3, 42)
	for _, r := range reqs {
		fmt.Printf("req %d: DC%d->DC%d slots [%d,%d]\n", r.ID, r.Src+1, r.Dst+1, r.Start, r.End)
	}
	// Output:
	// req 0: DC6->DC3 slots [8,10]
	// req 1: DC4->DC2 slots [8,11]
	// req 2: DC4->DC5 slots [8,9]
}

// ExampleServer_RunCycles runs one billing cycle through the admission
// daemon's closed loop: each slot's arrivals are submitted, then the
// epoch ticks and the greedy policy decides them.
func ExampleServer_RunCycles() {
	dcs := []metis.DC{
		{ID: 0, Name: "fra", Region: metis.RegionEurope},
		{ID: 1, Name: "ams", Region: metis.RegionEurope},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 2},
		{From: 1, To: 0, Price: 2},
	}
	net, _ := metis.NewNetwork("demo", dcs, links)

	// An hour-long epoch never binds the tick budget: the run is
	// deterministic.
	srv, _ := metis.NewServer(metis.ServeConfig{Net: net, Epoch: time.Hour})
	cycle := []metis.Request{
		// Worth more than the bandwidth unit it forces: accepted.
		{Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.5, Value: 6},
		// Arrives later and would force a second unit: declined.
		{Src: 0, Dst: 1, Start: 3, End: 11, Rate: 0.9, Value: 0.1},
	}
	res, _ := srv.RunCycles(context.Background(), [][]metis.Request{cycle})

	fmt.Printf("decided=%d accepted=%d profit=%.1f\n", res[0].Decided, res[0].Accepted, res[0].Profit)
	// Output: decided=2 accepted=1 profit=4.0
}
