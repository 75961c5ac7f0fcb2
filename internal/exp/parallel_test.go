package exp

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachPointVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 50} {
		const n = 17
		var hits [n]atomic.Int32
		err := forEachPoint(n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: point %d evaluated %d times", workers, i, got)
			}
		}
	}
}

func TestForEachPointReturnsLowestIndexError(t *testing.T) {
	errLow, errHigh := errors.New("low"), errors.New("high")
	err := forEachPoint(10, 4, func(i int) error {
		switch i {
		case 3:
			return errLow
		case 7:
			return errHigh
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("err = %v, want the lowest-index failure", err)
	}
}

func TestForEachPointZeroPoints(t *testing.T) {
	if err := forEachPoint(0, 4, func(int) error { t.Fatal("fn called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// timingSeries are figure columns that measure wall-clock time and are
// therefore allowed — expected, even — to differ across worker counts.
func timingSeries(name string) bool {
	return name == "time_s" || strings.HasSuffix(name, "_s")
}

// TestParallelFiguresMatchSequential is the harness-layer determinism
// contract: running the scenario points of an experiment on a worker
// pool must reproduce the sequential figures exactly, except for
// wall-clock columns.
func TestParallelFiguresMatchSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	// fig4a shares one RNG across points (pre-drawn per-point blocks),
	// ablation-rounding re-seeds per point, fig5 is RNG-free per point
	// beyond the solver seed, ablation-theta carries a timing column.
	for _, id := range []string{"fig4a", "ablation-rounding", "fig5", "ablation-theta"} {
		t.Run(id, func(t *testing.T) {
			cfg := QuickConfig()
			cfg.Parallel = 1
			seq, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Parallel = 4
			par, err := Run(id, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sameFigures(t, seq, par)
		})
	}
}

// sameFigures fails t unless par reproduces seq in every figure, row
// label and non-timing column, bit for bit.
func sameFigures(t *testing.T, seq, par []*Figure) {
	t.Helper()
	if len(par) != len(seq) {
		t.Fatalf("parallel produced %d figures, sequential %d", len(par), len(seq))
	}
	for f := range seq {
		sf, pf := seq[f], par[f]
		if pf.ID != sf.ID || len(pf.X) != len(sf.X) {
			t.Fatalf("figure %d: ID/rows %s/%d != sequential %s/%d", f, pf.ID, len(pf.X), sf.ID, len(sf.X))
		}
		for r := range sf.X {
			if pf.X[r] != sf.X[r] {
				t.Fatalf("%s row %d: label %q != sequential %q", sf.ID, r, pf.X[r], sf.X[r])
			}
			for c, series := range sf.Series {
				if timingSeries(series) {
					continue
				}
				if pf.Y[r][c] != sf.Y[r][c] {
					t.Fatalf("%s row %s series %s: parallel %v != sequential %v",
						sf.ID, sf.X[r], series, pf.Y[r][c], sf.Y[r][c])
				}
			}
		}
	}
}

// exactRun is one quick run of fig3 and fig4b, the sweeps whose exact
// references dominate this package's test time.
type exactRun struct {
	fig3  []*Figure
	fig4b *Figure
	stats RunStatsReport
}

// exactRuns caches one exactRun per worker count, so the shape tests and
// TestExactFiguresRepeatable share their runs.
var exactRuns struct {
	sync.Mutex
	byParallel map[int]*exactRun
}

func quickExactRun(t *testing.T, parallel int) *exactRun {
	t.Helper()
	exactRuns.Lock()
	defer exactRuns.Unlock()
	if r, ok := exactRuns.byParallel[parallel]; ok {
		return r
	}
	cfg := QuickConfig()
	cfg.Parallel = parallel
	cfg.Stats = &RunStats{}
	if raceEnabled {
		// A tenth of the budget keeps a race run as long as an
		// uninstrumented one; the assertions hold at any budget.
		cfg.OptNodes /= 10
	}
	fig3, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig4b, err := Fig4b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &exactRun{fig3: fig3, fig4b: fig4b, stats: cfg.Stats.Report()}
	if exactRuns.byParallel == nil {
		exactRuns.byParallel = map[int]*exactRun{}
	}
	exactRuns.byParallel[parallel] = r
	return r
}

// TestExactFiguresRepeatable: the exact OPT references stop on a node
// budget, so fig3 and fig4b — OPT columns included — are functions of
// code and seed. One and two workers must agree on every non-timing
// column and on every exact solve's node count, status and gap.
func TestExactFiguresRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("exact-reference sweep at two worker counts")
	}
	seq, par := quickExactRun(t, 1), quickExactRun(t, 2)
	sameFigures(t, seq.fig3, par.fig3)
	sameFigures(t, []*Figure{seq.fig4b}, []*Figure{par.fig4b})
	if len(seq.stats.Exact) != 6 {
		t.Fatalf("%d exact solves recorded, want 6 (fig3: 2 points × 2, fig4b: 2 networks)", len(seq.stats.Exact))
	}
	if !reflect.DeepEqual(seq.stats.Exact, par.stats.Exact) {
		t.Fatalf("exact solves differ between 1 and 2 workers:\n  %+v\n  %+v", seq.stats.Exact, par.stats.Exact)
	}
}
