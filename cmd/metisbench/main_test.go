package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metis/internal/exp"
	"metis/internal/obs"
)

func TestRunQuickFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig4a", "-quick"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSV(t *testing.T) {
	if err := run([]string{"-fig", "ablation-rounding", "-quick", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunRefusesDeletedOptLimit: the exact references stop on the
// config's node budget, and the wall-clock override is gone; so is the
// switch to the cold LP path, which only the parity tests select.
func TestRunRefusesDeletedOptLimit(t *testing.T) {
	for flag, args := range map[string][]string{
		"-opt-limit": {"-fig", "fig3", "-quick", "-opt-limit", "30s"},
		"-warm":      {"-fig", "fig4a", "-warm", "lukewarm"},
	} {
		err := run(args)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+flag) {
			t.Fatalf("run(%v) = %v, want an undefined-flag error", args, err)
		}
	}
}

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "fig99"}); err == nil {
		t.Fatal("want error for unknown figure")
	}
}

// TestRunConflictingFlags: contradictory combinations must fail fast at
// validation, before any experiment starts (each of these would
// otherwise run minutes of figures with one flag silently ignored).
func TestRunConflictingFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "fig4a", "-csv", "-chart"},
		{"-fig", "fig4a", "-csv", "-json"},
		{"-fig", "fig4a", "-chart", "-json"},
		{"-fig", "fig4a", "-csv", "-chart", "-json"},
		{"-list", "-json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v): want validation error, got nil", args)
		}
	}
}

func TestRunSeedOverride(t *testing.T) {
	if err := run([]string{"-fig", "fig4a", "-quick", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunParallelFlag(t *testing.T) {
	if err := run([]string{"-fig", "fig4cd", "-quick", "-parallel", "4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunJSON(t *testing.T) {
	cfg := exp.QuickConfig()
	cfg.Parallel = 2
	var buf bytes.Buffer
	if err := runJSON(&buf, "ablation-rounding", "quick", cfg); err != nil {
		t.Fatal(err)
	}
	var report jsonReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if report.Config != "quick" || report.Parallel != 2 {
		t.Fatalf("report header = %q/%d, want quick/2", report.Config, report.Parallel)
	}
	if len(report.Figures) != 1 || report.Figures[0].ID != "ablation-rounding" {
		t.Fatalf("figures = %+v, want one ablation-rounding figure", report.Figures)
	}
	if len(report.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v, want one record", report.Benchmarks)
	}
	rec := report.Benchmarks[0]
	if rec.Name != "ablation-rounding" || rec.NsPerOp <= 0 || rec.AllocsPerOp == 0 {
		t.Fatalf("benchmark record %+v: want positive ns and allocs", rec)
	}
}

// TestRunDeadlineDegrades: a fig5 run whose first Metis round stalls
// past the per-point deadline still succeeds, prints every fig5 row, and
// counts the cut-short solve as degraded.
func TestRunDeadlineDegrades(t *testing.T) {
	before := obs.Snapshot()["solve.degraded"]
	out := stdoutOf(t, func() error {
		return run([]string{"-fig", "fig5", "-quick", "-csv",
			"-deadline", "250ms", "-fault", "core.round:sleep:1:500ms"})
	})
	if got := obs.Snapshot()["solve.degraded"] - before; got < 1 {
		t.Fatalf("solve.degraded moved by %v, want ≥ 1", got)
	}
	tables := strings.Split(strings.TrimSpace(out), "\n\n")
	if len(tables) != 3 {
		t.Fatalf("got %d tables, want fig5a, fig5b and fig5c:\n%s", len(tables), out)
	}
	for _, tab := range tables {
		rows := strings.Split(tab, "\n")
		if rows[0] != "K,Metis,EcoFlow" || len(rows) != 1+len(exp.QuickConfig().Fig5Ks) {
			t.Fatalf("table %q: want header K,Metis,EcoFlow and one row per K %v", tab, exp.QuickConfig().Fig5Ks)
		}
		for i, k := range exp.QuickConfig().Fig5Ks {
			if cells := strings.Split(rows[1+i], ","); cells[0] != fmt.Sprint(k) || len(cells) != 3 || cells[1] == "" {
				t.Fatalf("row %q: want K=%d with a Metis and an EcoFlow value", rows[1+i], k)
			}
		}
	}
}

// stdoutOf runs f with os.Stdout sent to a file and returns what f
// printed.
func stdoutOf(t *testing.T, f func() error) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	tmp, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = tmp
	err = f()
	os.Stdout = stdout
	tmp.Close()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
