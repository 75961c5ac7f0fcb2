package exp

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/sched"
	"metis/internal/serve"
	"metis/internal/stats"
	"metis/internal/wan"
)

// TestPolicyLadder is the policy ladder of ROADMAP item 1: the daemon's
// policies run on the closed loop (serve.Server.RunCycles, an hour-long
// epoch so no budget binds) over two SUB-B4 cycles of K=600 requests
// drawn with generator seed seed·1000+c. Cycle 1 is scored as a fraction
// of hindsight core.Solve on its complete request set; "wins" counts the
// seeds 1–10 on which a row out-earns greedy. The oracle row admits with
// taa into the hindsight schedule's own purchase.
func TestPolicyLadder(t *testing.T) {
	if testing.Short() {
		t.Skip("20 closed-loop cycles per policy at K=600")
	}
	if raceEnabled {
		t.Skip("RunCycles with no WAL and no HTTP starts no goroutine, so the race detector has nothing to compare; the uninstrumented run covers the ladder")
	}
	const k, seeds = 600, 10
	net := wan.SubB4()
	rows := []struct {
		name, policy string
		replanEvery  int
		oracle       bool
	}{
		{name: "greedy", policy: "greedy"},
		{name: "metis-incremental -replan-every 1", policy: "metis-incremental", replanEvery: 1},
		{name: "metis-incremental -replan-every 2", policy: "metis-incremental", replanEvery: 2},
		{name: "taa, plan = hindsight Charged (oracle)", policy: "taa", oracle: true},
	}
	ratios := make([][]float64, len(rows))
	for seed := int64(1); seed <= seeds; seed++ {
		cycles := make([][]demand.Request, 2)
		for c := range cycles {
			g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed*1000+int64(c)))
			if err != nil {
				t.Fatal(err)
			}
			if cycles[c], err = g.GenerateN(k); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := sched.NewInstance(net, demand.DefaultSlots, cycles[1], sched.DefaultPathsPerRequest)
		if err != nil {
			t.Fatal(err)
		}
		hindsight, err := core.Solve(inst, core.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for r, row := range rows {
			var plan []int
			if row.oracle {
				plan = hindsight.Charged
			}
			pol, err := serve.NewPolicy(row.policy, plan, row.replanEvery, core.Config{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			srv, err := serve.New(serve.Config{Net: net, Epoch: time.Hour, Policy: pol, Check: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := srv.RunCycles(context.Background(), cycles)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, row.name, err)
			}
			if st := srv.Stats(); st.CheckFailures > 0 {
				t.Fatalf("seed %d %s: ledger check failed: %s", seed, row.name, st.LastCheckError)
			}
			ratios[r] = append(ratios[r], res[1].Profit/hindsight.Profit)
		}
	}

	wins := make([]int, len(rows))
	var table strings.Builder
	fmt.Fprintf(&table, "| policy | K=%d median (min–max) | wins |\n|---|---|---|\n", k)
	for r, row := range rows {
		for s := range ratios[r] {
			if ratios[r][s] > ratios[0][s] {
				wins[r]++
			}
		}
		won := "–"
		if r > 0 {
			won = fmt.Sprintf("%d/%d", wins[r], seeds)
		}
		sum := stats.Summarize(ratios[r])
		fmt.Fprintf(&table, "| `%s` | %.2f (%.2f–%.2f) | %s |\n",
			row.name, stats.Percentile(ratios[r], 50), sum.Min, sum.Max, won)
	}
	t.Logf("profit of cycle 1 as a fraction of hindsight core.Solve:\n%s", table.String())

	if oracle := wins[3]; oracle < 9 {
		t.Errorf("taa on the hindsight plan beats greedy on %d of %d seeds, want ≥ 9: admission into a good plan should win", oracle, seeds)
	}
	// The known gap: replanning every second epoch loses to greedy.
	// ROADMAP item 1 exists to flip this row; when it lands, this bound
	// becomes ≥ 8 wins.
	if every2 := wins[2]; every2 > 2 {
		t.Errorf("metis-incremental -replan-every 2 beats greedy on %d of %d seeds; the known gap (ROADMAP item 1) is ≤ 2 — if item 1 closed it, raise this bound to ≥ 8", every2, seeds)
	}
}
