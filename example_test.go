package metis_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// ExampleNewServePolicy admits one cycle with the "taa" policy: each
// epoch's batch is admitted by TAA into a fixed capacity plan, so a
// request the plan cannot carry is declined instead of bought for.
func ExampleNewServePolicy() {
	dcs := []metis.DC{
		{ID: 0, Name: "fra", Region: metis.RegionEurope},
		{ID: 1, Name: "ams", Region: metis.RegionEurope},
	}
	links := []metis.Link{
		{From: 0, To: 1, Price: 2},
		{From: 1, To: 0, Price: 2},
	}
	net, _ := metis.NewNetwork("demo", dcs, links)

	// One unit on each link, bought up front.
	policy, _ := metis.NewServePolicy("taa", []int{1, 1}, 0, metis.Config{})
	srv, _ := metis.NewServer(metis.ServeConfig{Net: net, Epoch: time.Hour, Policy: policy})
	cycle := []metis.Request{
		{Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.6, Value: 3},
		// Would need a second unit on the link: declined.
		{Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.6, Value: 1},
	}
	res, _ := srv.RunCycles(context.Background(), [][]metis.Request{cycle})

	fmt.Printf("decided=%d accepted=%d\n", res[0].Decided, res[0].Accepted)
	// Output: decided=2 accepted=1
}

// ExampleWriteArrivals writes a timestamped workload stream, one JSON
// arrival per line, as cmd/wangen -stream does.
func ExampleWriteArrivals() {
	arrivals := []metis.Arrival{
		{AtMillis: 0, Request: metis.Request{ID: 0, Src: 0, Dst: 1, Start: 0, End: 3, Rate: 0.5, Value: 2}},
		{AtMillis: 250, Request: metis.Request{ID: 1, Src: 1, Dst: 0, Start: 1, End: 4, Rate: 1, Value: 3}},
	}
	_ = metis.WriteArrivals(os.Stdout, arrivals)
	// Output:
	// {"atMillis":0,"request":{"id":0,"src":0,"dst":1,"start":0,"end":3,"rate":0.5,"value":2}}
	// {"atMillis":250,"request":{"id":1,"src":1,"dst":0,"start":1,"end":4,"rate":1,"value":3}}
}

// ExampleReadArrivals decodes a workload stream, as cmd/metisload does
// before replaying it against a daemon. Blank lines are skipped.
func ExampleReadArrivals() {
	stream := `{"atMillis":0,"request":{"id":0,"src":0,"dst":1,"start":0,"end":3,"rate":0.5,"value":2}}

{"atMillis":250,"request":{"id":1,"src":1,"dst":0,"start":1,"end":4,"rate":1,"value":3}}
`
	arrivals, _ := metis.ReadArrivals(strings.NewReader(stream))
	for _, a := range arrivals {
		r := a.Request
		fmt.Printf("t=%dms req %d: DC%d->DC%d value %.0f\n", a.AtMillis, r.ID, r.Src, r.Dst, r.Value)
	}
	// Output:
	// t=0ms req 0: DC0->DC1 value 2
	// t=250ms req 1: DC1->DC0 value 3
}

// ExampleNewHAStandby runs a durable leader and a hot standby in one
// process: the standby mirrors and applies the leader's log, and after
// the leader stops it promotes with a newer fencing token and the
// leader's state.
func ExampleNewHAStandby() {
	dir, _ := os.MkdirTemp("", "metis-ha-")
	defer os.RemoveAll(dir)
	ctx := context.Background()
	net := metis.SubB4()
	cfg := metis.ServeConfig{Net: net, Epoch: time.Hour}

	// The leader opens its log first, so every ack is durable; a fresh
	// log gets token 1 as its first frame.
	log, _ := metis.OpenWAL(filepath.Join(dir, "leader"), metis.WALOptions{})
	cfg.WAL = log
	leader, _ := metis.NewServer(cfg)
	leader.RecoverWAL()
	metis.InitFencingToken(leader)
	ln, stop, _ := leader.Listen("127.0.0.1:0", metis.NewHALeader(leader, log.Dir()).Register)

	// The standby has no log of its own until it promotes.
	cfg.WAL = nil
	standby, _ := metis.NewServer(cfg)
	standby.SetStandby()
	node := metis.NewHAStandby(standby, filepath.Join(dir, "standby"), "http://"+ln.Addr().String())

	reqs, _ := metis.GenerateWorkload(net, 20, 42)
	for _, r := range reqs {
		leader.Submit(r)
	}
	leader.Tick(ctx)
	st, _ := node.FetchOnce(ctx)

	// The leader stops; the standby takes over.
	stop()
	log.Close()
	rep, _ := node.Promote(ctx)
	defer standby.WAL().Close()
	l, p := leader.Stats(), standby.Stats()
	fmt.Printf("leader:   token %d, accepted %d, rejected %d\n", st.Token, l.Accepted, l.Rejected)
	fmt.Printf("promoted: token %d, accepted %d, rejected %d, role %s\n", rep.Token, p.Accepted, p.Rejected, standby.Role())
	// Output:
	// leader:   token 1, accepted 5, rejected 15
	// promoted: token 2, accepted 5, rejected 15, role leader
}
