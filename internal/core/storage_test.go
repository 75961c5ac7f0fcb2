package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

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

// resultDigest is everything a Result holds that reused storage could
// overwrite: the profit's bits, every request's choice, the purchase and
// the round history.
func resultDigest(res *Result) string {
	n := res.Schedule.Instance().NumRequests()
	choices := make([]int, n)
	for i := range choices {
		choices[i] = res.Schedule.Choice(i)
	}
	rounds := make([]RoundStats, len(res.Rounds))
	copy(rounds, res.Rounds)
	for i := range rounds {
		rounds[i].MAAElapsed, rounds[i].TAAElapsed, rounds[i].Elapsed = 0, 0, 0
	}
	return fmt.Sprintf("%#x %v %v %+v", math.Float64bits(res.Profit), choices, res.Charged, rounds)
}

// TestResultOutlivesStorage: a Result owns what it holds. Solving an
// instance of another shape in the same storage afterwards leaves its
// profit, choices, purchase and rounds as they were.
func TestResultOutlivesStorage(t *testing.T) {
	cfg := Config{Theta: 4, Seed: 1}
	var st solveStorage
	resA, err := solve(nil, instance(t, wan.B4(), 300, 1000), cfg, &st)
	if err != nil {
		t.Fatal(err)
	}
	want := resultDigest(resA)
	if _, err := solve(nil, instance(t, wan.SubB4(), 120, 7), cfg, &st); err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(resA); got != want {
		t.Errorf("result changed when its storage solved another instance:\n got %s\nwant %s", got, want)
	}
}

// TestStorageForgetsInstance: storage kept for the next Solve holds no
// reference to the last Solve's instance or network, so both are
// collected once the caller drops them and the Result.
func TestStorageForgetsInstance(t *testing.T) {
	var st solveStorage
	instRef, netRef := solveAndForget(t, &st)
	runtime.GC()
	if instRef.Value() != nil {
		t.Error("storage still references the solved instance")
	}
	if netRef.Value() != nil {
		t.Error("storage still references the instance's network")
	}
	runtime.KeepAlive(&st)
}

// solveAndForget solves a fresh instance in st and returns weak
// references to the instance and its network.
func solveAndForget(t *testing.T, st *solveStorage) (weak.Pointer[sched.Instance], weak.Pointer[wan.Network]) {
	inst := instance(t, wan.B4(), 100, 1001)
	if _, err := solve(nil, inst, Config{Theta: 4, Seed: 1}, st); err != nil {
		t.Fatal(err)
	}
	return weak.Make(inst), weak.Make(inst.Network())
}
