package exp

import (
	"strconv"
	"strings"
	"testing"
)

// The experiment tests run at QuickConfig scale and assert the paper's
// comparison *shapes*; checkGolden pins every figure they compute to
// its checked-in values.

func TestFig3Shapes(t *testing.T) {
	figs := quickExactRun(t, 1).fig3
	if len(figs) != 3 {
		t.Fatalf("got %d figures, want 3", len(figs))
	}
	checkGolden(t, figs...)
	profit, accepted := figs[0], figs[1]
	for r := range profit.X {
		optSPM, _ := profit.Value(r, "OPT(SPM)")
		metis, _ := profit.Value(r, "Metis")
		optRL, _ := profit.Value(r, "OPT(RL-SPM)")
		// OPT(SPM) is warm-started with Metis: it can never be below.
		if optSPM < metis-1e-9 {
			t.Errorf("row %s: OPT(SPM) %v below Metis %v", profit.X[r], optSPM, metis)
		}
		// Declining requests must not hurt: Metis >= accept-everything.
		if metis < optRL-1e-9 {
			t.Errorf("row %s: Metis %v below OPT(RL-SPM) %v", profit.X[r], metis, optRL)
		}
		accRL, _ := accepted.Value(r, "OPT(RL-SPM)")
		accMetis, _ := accepted.Value(r, "Metis")
		// OPT(RL-SPM) serves everything by definition.
		if int(accRL) != atoiOrFail(t, accepted.X[r]) {
			t.Errorf("row %s: OPT(RL-SPM) accepted %v, want all", accepted.X[r], accRL)
		}
		if accMetis > accRL+1e-9 {
			t.Errorf("row %s: Metis accepted %v > all %v", accepted.X[r], accMetis, accRL)
		}
	}
}

func TestFig4aShapes(t *testing.T) {
	fig, err := Fig4a(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fig)
	for r := range fig.X {
		maaCost, _ := fig.Value(r, "MAA")
		mc, _ := fig.Value(r, "MinCost")
		lpBound, _ := fig.Value(r, "LP bound")
		if maaCost < lpBound-1e-6 {
			t.Errorf("row %s: MAA cost %v below LP bound %v", fig.X[r], maaCost, lpBound)
		}
		// MinCost must not beat MAA by more than rounding noise.
		if mc < maaCost*0.95 {
			t.Errorf("row %s: MinCost %v substantially below MAA %v", fig.X[r], mc, maaCost)
		}
	}
}

func TestFig4bShapes(t *testing.T) {
	fig := quickExactRun(t, 1).fig4b
	if len(fig.X) != 2 {
		t.Fatalf("want 2 networks, got %v", fig.X)
	}
	checkGolden(t, fig)
	for r := range fig.X {
		mean, _ := fig.Value(r, "mean")
		p95, _ := fig.Value(r, "p95")
		maxR, _ := fig.Value(r, "max")
		if mean <= 0 || p95 < mean-1e-9 || maxR < p95-1e-9 {
			t.Errorf("row %s: inconsistent stats mean=%v p95=%v max=%v", fig.X[r], mean, p95, maxR)
		}
		// The paper's headline: ratios stay modest (<1.2 against their
		// optimum); allow generous headroom at quick scale.
		if mean > 2.0 {
			t.Errorf("row %s: mean rounding ratio %v unexpectedly large", fig.X[r], mean)
		}
	}
}

func TestFig4cdShapes(t *testing.T) {
	figs, err := Fig4cd(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, figs...)
	revenue, accepted := figs[0], figs[1]
	for r := range revenue.X {
		taaRev, _ := revenue.Value(r, "TAA")
		amRev, _ := revenue.Value(r, "Amoeba")
		bound, _ := revenue.Value(r, "LP bound")
		if taaRev > bound+1e-6 {
			t.Errorf("row %s: TAA revenue %v above LP bound %v", revenue.X[r], taaRev, bound)
		}
		// The paper's comparison: TAA earns at least as much as Amoeba.
		if taaRev < amRev-1e-9 {
			t.Errorf("row %s: TAA revenue %v below Amoeba %v", revenue.X[r], taaRev, amRev)
		}
		taaAcc, _ := accepted.Value(r, "TAA")
		if taaAcc < 0 {
			t.Errorf("row %s: negative accepted count", accepted.X[r])
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	figs, err := Fig5(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, figs...)
	profit, accepted, util := figs[0], figs[1], figs[2]
	for r := range profit.X {
		metis, _ := profit.Value(r, "Metis")
		eco, _ := profit.Value(r, "EcoFlow")
		// Both are non-negative by construction; Metis wins the profit
		// comparison in the paper.
		if metis < -1e-9 || eco < -1e-9 {
			t.Errorf("row %s: negative profit (metis %v, eco %v)", profit.X[r], metis, eco)
		}
		// Metis wins the profit comparison; at sparse quick-config
		// scales EcoFlow's multipath splitting (which Metis's
		// one-path-per-request model forbids) can claw back a few
		// percent, so allow a small tolerance.
		if metis < 0.93*eco {
			t.Errorf("row %s: Metis profit %v below EcoFlow %v", profit.X[r], metis, eco)
		}
		mAcc, _ := accepted.Value(r, "Metis")
		eAcc, _ := accepted.Value(r, "EcoFlow")
		// EcoFlow's greedy declines more requests than Metis (allow the
		// same few-requests tolerance at sparse scales).
		if eAcc > mAcc*1.15+3 {
			t.Errorf("row %s: EcoFlow accepted %v > Metis %v", accepted.X[r], eAcc, mAcc)
		}
		mu, _ := util.Value(r, "Metis")
		if mu < 0 || mu > 1+1e-9 {
			t.Errorf("row %s: Metis utilization %v outside [0,1]", util.X[r], mu)
		}
	}
}

func TestAblations(t *testing.T) {
	cfg := QuickConfig()
	t.Run("theta", func(t *testing.T) {
		fig, err := AblationTheta(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fig)
		// Profit is monotone in θ for a fixed seed (SP Updater keeps the
		// best schedule and early rounds coincide).
		var prev float64
		for r := range fig.X {
			p, _ := fig.Value(r, "profit")
			if p < prev-1e-9 {
				t.Errorf("profit decreased from %v to %v at θ=%s", prev, p, fig.X[r])
			}
			prev = p
		}
	})
	t.Run("tau", func(t *testing.T) {
		fig, err := AblationTau(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fig)
	})
	t.Run("paths", func(t *testing.T) {
		fig, err := AblationPaths(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fig)
		if len(fig.X) != 4 {
			t.Fatalf("want 4 rows, got %d", len(fig.X))
		}
	})
	t.Run("rounding", func(t *testing.T) {
		fig, err := AblationRounding(cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fig)
		// Best-of-R cost is non-increasing in R for nested seeds... the
		// RNG restarts per call, so only sanity-check the ratios.
		for r := range fig.X {
			ratio, _ := fig.Value(r, "cost/LP")
			if ratio < 1-1e-9 {
				t.Errorf("rounding cost ratio %v below 1", ratio)
			}
		}
	})
}

func TestExtensionOnlineShapes(t *testing.T) {
	fig, err := ExtensionOnline(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fig)
	for r := range fig.X {
		offline, _ := fig.Value(r, "Offline")
		greedy, _ := fig.Value(r, "Greedy")
		// Hindsight Metis is a heuristic, not the optimum, so allow a
		// small tolerance against the online greedy; the greedy never
		// goes negative (it only buys when value covers it).
		if offline < 0.93*greedy {
			t.Errorf("row %s: offline %v below online greedy %v", fig.X[r], offline, greedy)
		}
		if greedy < -1e-9 {
			t.Errorf("row %s: greedy profit %v negative", fig.X[r], greedy)
		}
	}
}

func TestExtensionMultiCycleShapes(t *testing.T) {
	fig, err := ExtensionMultiCycle(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fig)
	if len(fig.X) != 6 {
		t.Fatalf("want 6 cycles, got %d", len(fig.X))
	}
	for r, x := range fig.X {
		if x != strconv.Itoa(r) {
			t.Errorf("row %d labelled cycle %q", r, x)
		}
	}
	for _, series := range []string{"Metis", "EcoFlow", "Accept-all", "Forecast-online"} {
		if _, err := fig.Value(0, series); err != nil {
			t.Errorf("series %s: %v", series, err)
		}
	}
}

// multiCycleColumn runs ext-multicycle at the quick configuration and
// returns one series' cumulative profit after each cycle.
func multiCycleColumn(t *testing.T, series string) []float64 {
	t.Helper()
	fig, err := ExtensionMultiCycle(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	col := make([]float64, len(fig.X))
	for r := range fig.X {
		if col[r], err = fig.Value(r, series); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

// assertNonDecreasing fails unless no cycle of a cumulative series
// lost money.
func assertNonDecreasing(t *testing.T, series string, cum []float64) {
	t.Helper()
	var prev float64
	for c, v := range cum {
		if v < prev-1e-9 {
			t.Fatalf("cycle %d: cumulative %s profit decreased (%v after %v)", c, series, v, prev)
		}
		prev = v
	}
}

// TestRunMetisMultiCycle checks that Metis, run on each whole cycle,
// covers all six cycles and never schedules one at a loss.
func TestRunMetisMultiCycle(t *testing.T) {
	cum := multiCycleColumn(t, "Metis")
	if len(cum) != 6 {
		t.Fatalf("ran %d cycles, want 6", len(cum))
	}
	assertNonDecreasing(t, "Metis", cum)
}

// TestEcoFlowScheduler checks that the EcoFlow baseline never loses
// money across cycles.
func TestEcoFlowScheduler(t *testing.T) {
	assertNonDecreasing(t, "EcoFlow", multiCycleColumn(t, "EcoFlow"))
}

// TestMetisBeatsAcceptAllCumulatively checks that Metis ends the cycles
// at or above serving every request at MAA-minimized cost.
func TestMetisBeatsAcceptAllCumulatively(t *testing.T) {
	m := multiCycleColumn(t, "Metis")
	all := multiCycleColumn(t, "Accept-all")
	if last := len(m) - 1; m[last] < all[last]-1e-6 {
		t.Fatalf("Metis cumulative %v below accept-all %v", m[last], all[last])
	}
}

// TestForecastOnlineScheduler checks the forecast-online series: cycle 0
// has no history (greedy), and the forecast-planned cycles after it must
// admit something profitable through the plan.
func TestForecastOnlineScheduler(t *testing.T) {
	cum := multiCycleColumn(t, "Forecast-online")
	if len(cum) != 6 {
		t.Fatalf("ran %d cycles, want 6", len(cum))
	}
	if first, last := cum[0], cum[len(cum)-1]; last <= first {
		t.Fatalf("forecast-planned cycles earned nothing: cumulative %v after cycle 0, %v at the end", first, last)
	}
}

func TestExtensionResilienceShapes(t *testing.T) {
	fig, err := ExtensionResilience(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, fig)
	for r := range fig.X {
		avg, _ := fig.Value(r, "avg retention")
		minR, _ := fig.Value(r, "min retention")
		if minR > avg+1e-9 {
			t.Errorf("row %s: min retention %v above avg %v", fig.X[r], minR, avg)
		}
		if avg > 1+1e-9 {
			t.Errorf("row %s: retention %v above 1 — failures cannot add profit", fig.X[r], avg)
		}
		aff, _ := fig.Value(r, "avg affected")
		rec, _ := fig.Value(r, "avg recovered")
		if rec > aff+1e-9 {
			t.Errorf("row %s: recovered %v exceeds affected %v", fig.X[r], rec, aff)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	cfg := QuickConfig()
	figs, err := Run("fig4a", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "fig4a" {
		t.Fatalf("unexpected figures %v", figs)
	}
	if _, err := Run("fig4c", cfg); err != nil {
		t.Fatalf("alias fig4c failed: %v", err)
	}
	if _, err := Run("nope", cfg); err == nil {
		t.Fatal("want error for unknown id")
	}
}

func TestFigureTableRenders(t *testing.T) {
	fig := &Figure{ID: "x", Title: "demo", XLabel: "K", Series: []string{"a"}}
	fig.AddRow("10", 1.25)
	var b strings.Builder
	if err := fig.Table().WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "1.25") {
		t.Fatalf("table missing value:\n%s", b.String())
	}
}

func TestFigureValueUnknownSeries(t *testing.T) {
	fig := &Figure{ID: "x", Series: []string{"a"}}
	fig.AddRow("1", 2)
	if _, err := fig.Value(0, "b"); err == nil {
		t.Fatal("want error for unknown series")
	}
}

func atoiOrFail(t *testing.T, s string) int {
	t.Helper()
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			t.Fatalf("not a number: %q", s)
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// TestWarmColdFigureParity is the acceptance gate for the warm-start
// layer: with warm starts on (the default) the fig5 and fig4a columns
// must be unchanged (±1e-9) against the ColdLP path, which is
// bit-identical to the pre-warm-start code.
func TestWarmColdFigureParity(t *testing.T) {
	warmCfg := QuickConfig()
	coldCfg := QuickConfig()
	coldCfg.coldLP = true

	type runner struct {
		name string
		run  func(Config) ([]*Figure, error)
	}
	runners := []runner{
		{"fig5", Fig5},
		{"fig4a", func(c Config) ([]*Figure, error) {
			f, err := Fig4a(c)
			return []*Figure{f}, err
		}},
	}
	for _, rn := range runners {
		warm, err := rn.run(warmCfg)
		if err != nil {
			t.Fatalf("%s warm: %v", rn.name, err)
		}
		cold, err := rn.run(coldCfg)
		if err != nil {
			t.Fatalf("%s cold: %v", rn.name, err)
		}
		if len(warm) != len(cold) {
			t.Fatalf("%s: %d figures warm, %d cold", rn.name, len(warm), len(cold))
		}
		for f := range warm {
			wf, cf := warm[f], cold[f]
			for r := range wf.X {
				for _, series := range wf.Series {
					wv, _ := wf.Value(r, series)
					cv, _ := cf.Value(r, series)
					if diff := wv - cv; diff > 1e-9 || diff < -1e-9 {
						t.Errorf("%s %s row %s series %s: warm %v != cold %v",
							rn.name, wf.ID, wf.X[r], series, wv, cv)
					}
				}
			}
		}
	}
}
