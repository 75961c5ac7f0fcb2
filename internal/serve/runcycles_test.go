package serve

import (
	"context"
	"testing"

	"metis/internal/demand"
)

func TestRunCyclesAccountsPerCycle(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Slots = 2 })
	rich, poor := goodRequest(1e6), goodRequest(1e-6)
	rich.End, poor.End = 1, 1
	poor.Rate = 0.9
	late := goodRequest(5e5)
	late.Start, late.End = 1, 1
	res, err := s.RunCycles(context.Background(), [][]demand.Request{{rich, poor}, {late}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || s.Epoch() != 4 {
		t.Fatalf("got %d results after %d ticks, want 2 after 4", len(res), s.Epoch())
	}
	want := []CycleResult{
		{Revenue: 1e6, Accepted: 1, Decided: 2},
		{Revenue: 5e5, Accepted: 1, Decided: 1},
	}
	for c, r := range res {
		// Each cycle buys afresh: the ledger resets when the cycle wraps.
		if r.Cost <= 0 || r.Profit != r.Revenue-r.Cost {
			t.Fatalf("cycle %d: cost %v, profit %v of revenue %v", c, r.Cost, r.Profit, r.Revenue)
		}
		r.Cost, r.Profit = 0, 0
		if r != want[c] {
			t.Fatalf("cycle %d: %+v, want %+v", c, r, want[c])
		}
	}
}

func TestRunCyclesRefuses(t *testing.T) {
	bad := goodRequest(1)
	bad.End = 99
	cases := []struct {
		name  string
		mut   func(*Config)
		setup func(*testing.T, *Server)
		reqs  []demand.Request
	}{
		{name: "mid-cycle", setup: func(_ *testing.T, s *Server) { s.Tick(context.Background()) }},
		{name: "queued arrival", setup: func(t *testing.T, s *Server) {
			if _, err := s.Submit(goodRequest(1)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "invalid request", reqs: []demand.Request{bad}},
		{name: "shed request", mut: func(c *Config) { c.QueueLimit = 1 }, reqs: []demand.Request{goodRequest(1), goodRequest(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestServer(t, tc.mut)
			if tc.setup != nil {
				tc.setup(t, s)
			}
			if res, err := s.RunCycles(context.Background(), [][]demand.Request{tc.reqs}); err == nil {
				t.Fatalf("want an error, got %+v", res)
			}
		})
	}
}
