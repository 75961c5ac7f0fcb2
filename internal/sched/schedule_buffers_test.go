package sched

import (
	"testing"

	"metis/internal/demand"
	"metis/internal/stats"
	"metis/internal/wan"
)

// loadedSchedule builds a schedule with a mix of accepted and declined
// requests so the load matrix has structure worth testing.
func loadedSchedule(t *testing.T) *Schedule {
	t.Helper()
	g, err := demand.NewGenerator(wan.SubB4(), demand.DefaultGeneratorConfig(31))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(25)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(wan.SubB4(), demand.DefaultSlots, reqs, DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSchedule(inst)
	rng := stats.NewRNG(31)
	for i := 0; i < inst.NumRequests(); i++ {
		if rng.Float64() < 0.2 {
			continue // leave declined
		}
		if err := s.Assign(i, rng.Intn(inst.NumPaths(i))); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestLoadsIntoReusesBuffer(t *testing.T) {
	s := loadedSchedule(t)
	want := s.Loads()
	buf := s.LoadsInto(nil)
	for e := range want {
		for ts := range want[e] {
			if buf[e][ts] != want[e][ts] {
				t.Fatalf("LoadsInto(nil)[%d][%d] = %v, Loads() = %v", e, ts, buf[e][ts], want[e][ts])
			}
		}
	}
	// Dirty the buffer, refill, and demand identical values in the SAME
	// backing arrays: that is the allocation contract the SP Updater
	// relies on.
	for e := range buf {
		for ts := range buf[e] {
			buf[e][ts] = -99
		}
	}
	again := s.LoadsInto(buf)
	if &again[0][0] != &buf[0][0] {
		t.Fatal("LoadsInto allocated a fresh buffer despite a fitting one")
	}
	for e := range want {
		for ts := range want[e] {
			if again[e][ts] != want[e][ts] {
				t.Fatalf("refilled buffer [%d][%d] = %v, want %v", e, ts, again[e][ts], want[e][ts])
			}
		}
	}
}

func TestLoadsIntoRejectsWrongShape(t *testing.T) {
	s := loadedSchedule(t)
	short := make([][]float64, 1)
	short[0] = make([]float64, 2)
	out := s.LoadsInto(short)
	if len(out) != s.Instance().Network().NumLinks() {
		t.Fatalf("LoadsInto on a misshapen buffer returned %d links, want %d",
			len(out), s.Instance().Network().NumLinks())
	}
}

func TestChargedOfMatchesChargedBandwidth(t *testing.T) {
	s := loadedSchedule(t)
	want := s.ChargedBandwidth()
	got := ChargedOf(s.Loads())
	if len(got) != len(want) {
		t.Fatalf("ChargedOf returned %d links, want %d", len(got), len(want))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("link %d: ChargedOf = %d, ChargedBandwidth = %d", e, got[e], want[e])
		}
	}
}

func TestCostAccessorsAgree(t *testing.T) {
	s := loadedSchedule(t)
	want := s.Cost()
	loads := s.Loads()
	if got := s.CostWithLoads(loads); got != want {
		t.Fatalf("CostWithLoads = %v, Cost = %v", got, want)
	}
	if got := s.CostOfCharged(ChargedOf(loads)); got != want {
		t.Fatalf("CostOfCharged = %v, Cost = %v", got, want)
	}
}
