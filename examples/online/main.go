// Online admission: the future-work setting where requests are NOT
// known for the whole billing cycle up front — each arrives at its
// start slot and must be accepted or declined on the spot. The example
// runs one cycle through the admission daemon's own tick loop
// (Server.RunCycles) under each daemon policy: buy-as-you-go greedy,
// taa admission into capacity planned with MAA on a *forecast*
// workload, and metis-incremental replanning. The hindsight Metis
// schedule that sees the whole cycle is the reference.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"metis"
)

func main() {
	net := metis.SubB4()
	reqs, err := metis.GenerateWorkload(net, 250, 21)
	if err != nil {
		log.Fatal(err)
	}

	// The provider plans capacity on last cycle's workload (different
	// seed), not on the actual future.
	forecastReqs, err := metis.GenerateWorkload(net, 250, 22)
	if err != nil {
		log.Fatal(err)
	}
	forecast, err := metis.NewInstance(net, metis.DefaultSlots, forecastReqs, metis.DefaultPathsPerRequest)
	if err != nil {
		log.Fatal(err)
	}
	planRes, err := metis.SolveMAA(forecast, 3, 21)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("workload: %d requests arriving over %d slots on %s\n\n",
		len(reqs), metis.DefaultSlots, net.Name())
	fmt.Printf("%-22s %10s %10s %10s\n", "policy", "profit", "revenue", "accepted")

	var greedy *metis.Server
	for _, name := range []string{"greedy", "taa", "metis-incremental"} {
		pol, err := metis.NewServePolicy(name, planRes.Charged, 1, metis.Config{Seed: 21})
		if err != nil {
			log.Fatal(err)
		}
		// An hour-long epoch keeps the tick budget from binding: the run
		// is deterministic.
		srv, err := metis.NewServer(metis.ServeConfig{Net: net, Epoch: time.Hour, Policy: pol})
		if err != nil {
			log.Fatal(err)
		}
		res, err := srv.RunCycles(context.Background(), [][]metis.Request{reqs})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s %10.2f %10.2f %10d\n", name, res[0].Profit, res[0].Revenue, res[0].Accepted)
		if name == "greedy" {
			greedy = srv
		}
	}

	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		log.Fatal(err)
	}
	offline, err := metis.Solve(inst, metis.Config{Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-22s %10.2f %10.2f %10d   (hindsight reference)\n",
		"offline-metis", offline.Profit, offline.Revenue, offline.Schedule.NumAccepted())

	// Arrival trace of the greedy policy: one scorecard row per tick.
	fmt.Println("\ngreedy arrival trace (slot: accepted/arrived):")
	for _, r := range greedy.EpochRecords() {
		fmt.Printf("  %2d: %3d/%3d\n", r.Slot, r.Accepted, r.Batch)
	}
}
