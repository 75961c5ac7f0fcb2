package core

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"metis/internal/obs"
	"metis/internal/sched"
	"metis/internal/wan"
)

// storageCases are the instances TestSolveStorageReuse solves in one
// sequence: offline-plan's large and small B4 shapes, a SUB-B4 instance
// on another network, then the first instance again, so every reused
// array is shrunk, regrown and reshaped between solves.
func storageCases(t *testing.T) []*sched.Instance {
	return []*sched.Instance{
		instance(t, wan.B4(), 1000, 1000),
		instance(t, wan.B4(), 100, 1001),
		instance(t, wan.SubB4(), 600, 7),
		instance(t, wan.B4(), 1000, 1000),
	}
}

// solveDigest is what must not move when a Solve runs in reused
// storage: the profit's bits, the accepted request ids and the
// purchase.
func solveDigest(res *Result) string {
	return fmt.Sprintf("%#x %v %v", math.Float64bits(res.Profit), res.Schedule.Accepted(), res.Charged)
}

// pivotsOf runs one solve alone and returns its digest with the simplex
// pivots it took (the lp.pivots delta), which also moves when a reused
// array changes the LP without changing the schedule.
func pivotsOf(t *testing.T, inst *sched.Instance, cfg Config, st *solveStorage) string {
	t.Helper()
	before := obs.Snapshot()["lp.pivots"]
	res, err := solve(nil, inst, cfg, st)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s pivots=%v", solveDigest(res), obs.Snapshot()["lp.pivots"]-before)
}

// TestSolveStorageReuse: a Solve whose storage (MAA's RL-SPM LP and its
// simplex arrays, TAA's Chernoff estimator, the BL model's pooled basis
// arrays) was used by earlier Solves of other shapes returns what a
// Solve in fresh storage returns, bit for bit — back to back on one
// goroutine (pivot for pivot), and with four Solves at once on four
// goroutines, which -race checks for shared state.
func TestSolveStorageReuse(t *testing.T) {
	insts := storageCases(t)
	cfg := Config{Theta: 4, Seed: 1}
	want := make([]string, len(insts))
	for i, inst := range insts {
		want[i] = pivotsOf(t, inst, cfg, new(solveStorage))
	}
	if want[0] != want[3] {
		t.Fatalf("two lone solves of one instance differ:\n%s\n%s", want[0], want[3])
	}

	var st solveStorage
	for i, inst := range insts {
		if got := pivotsOf(t, inst, cfg, &st); got != want[i] {
			t.Errorf("back-to-back solve %d in reused storage:\n got %s\nwant %s", i, got, want[i])
		}
	}
	for i := range want {
		want[i], _, _ = strings.Cut(want[i], " pivots=")
	}

	got := make([]string, len(insts))
	errs := make([]error, len(insts))
	var wg sync.WaitGroup
	for i, inst := range insts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Solve(inst, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = solveDigest(res)
		}()
	}
	wg.Wait()
	for i := range insts {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("concurrent solve %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
