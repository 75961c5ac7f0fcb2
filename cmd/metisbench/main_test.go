package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"metis/internal/exp"
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
