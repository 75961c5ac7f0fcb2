package serve

import (
	"fmt"
	"slices"
	"testing"

	"metis/internal/demand"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/stats"
	"metis/internal/wan"
)

// TestLedgerAndStateCommitAlike folds the same random accepts into a
// Ledger (in random CommitBatch splits) and into an online.State (one
// Commit each), on B4 and SUB-B4: both run the one purchase rule, so
// their loads and purchases must agree bit for bit.
func TestLedgerAndStateCommitAlike(t *testing.T) {
	for _, net := range []*wan.Network{wan.B4(), wan.SubB4()} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", net.Name(), seed), func(t *testing.T) {
				gen, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
				if err != nil {
					t.Fatal(err)
				}
				reqs, err := gen.GenerateN(80)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := sched.NewInstance(net, demand.DefaultSlots, reqs, sched.DefaultPathsPerRequest)
				if err != nil {
					t.Fatal(err)
				}
				rng := stats.NewRNG(seed)
				led := NewLedger(net, inst.Slots())
				st := online.NewState(nil, inst)
				var batch []CommitEntry
				for i := 0; i < inst.NumRequests(); i++ {
					if rng.Intn(4) == 0 {
						continue
					}
					j := rng.Intn(inst.NumPaths(i))
					if err := st.Commit(i, j); err != nil {
						t.Fatal(err)
					}
					batch = append(batch, CommitEntry{Req: inst.Request(i), Links: inst.Path(i, j).Links})
					if rng.Intn(5) == 0 {
						led.CommitBatch(batch, 1)
						batch = batch[:0]
					}
				}
				led.CommitBatch(batch, 1)
				if !slices.Equal(led.Purchased(), st.Purchased()) {
					t.Fatalf("purchased: ledger %v, state %v", led.Purchased(), st.Purchased())
				}
				if !slices.EqualFunc(led.Loads(), st.Loads(), slices.Equal) {
					t.Fatal("ledger and state loads differ")
				}
				if led.Committed() != st.Schedule().NumAccepted() {
					t.Fatalf("ledger committed %d, state accepted %d", led.Committed(), st.Schedule().NumAccepted())
				}
			})
		}
	}
}
