package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"metis"
	"metis/internal/obs"
)

// traceSolve runs one traced Metis solve (B4, K=100 — the benchmark
// scenario) and returns the JSONL path.
func traceSolve(t *testing.T) string {
	t.Helper()
	net := metis.B4()
	reqs, err := metis.GenerateWorkload(net, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := metis.NewInstance(net, metis.DefaultSlots, reqs, metis.DefaultPathsPerRequest)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewJSONLTracer(f)
	if _, err := metis.Solve(inst, metis.Config{Theta: 4, Seed: 1, Tracer: tracer}); err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSummarizeTracedSolve: end to end — a traced K=100 solve produces
// JSONL that metistrace turns into the per-round table, the warm-start
// outcome breakdown, and the slowest-LP list.
func TestSummarizeTracedSolve(t *testing.T) {
	path := traceSolve(t)

	// The file must be a valid trace with the expected span names.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, r := range recs {
		names[r.Name]++
	}
	if names["metis.solve"] != 1 {
		t.Fatalf("metis.solve spans = %d, want 1 (names: %v)", names["metis.solve"], names)
	}
	if names["metis.round"] != 4 {
		t.Fatalf("metis.round spans = %d, want 4 (Theta=4)", names["metis.round"])
	}
	if names["lp.solve"] == 0 || names["maa.solve"] == 0 {
		t.Fatalf("missing stage spans: %v", names)
	}
	// The BL-SPM step is TAA's greedy arm: no TAA LP, no taa.solve span,
	// and every LP of the solve is one of MAA's (at most one per round).
	if names["taa.solve"] != 0 || names["lp.solve"] > names["maa.solve"] {
		t.Fatalf("stage spans %v, want only MAA's LP solves", names)
	}

	var out strings.Builder
	if err := run([]string{"-in", path, "-top", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Metis solves",
		"Alternation rounds",
		"LP warm-start outcomes",
		"Slowest LP solves (top 3)",
		"best_profit",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	// Theta=4 rounds: rows 1..4 must appear in the rounds table.
	if strings.Count(got, "\n1 ") == 0 {
		t.Errorf("rounds table has no round-1 row:\n%s", got)
	}
}

// TestCSVMode: -csv emits parseable CSV rather than aligned text.
func TestCSVMode(t *testing.T) {
	path := traceSolve(t)
	var out strings.Builder
	if err := run([]string{"-in", path, "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "round,accepted,maa_ms") {
		t.Errorf("CSV output missing rounds header:\n%s", out.String())
	}
}

// TestEmptyTraceErrors: an empty file is an explicit error, not empty
// output.
func TestEmptyTraceErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.jsonl")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path}, &strings.Builder{}); err == nil {
		t.Fatal("empty trace accepted, want error")
	}
}

// TestLenientAndEpochsTable: a daemon trace with malformed lines and a
// serve.epoch span still renders (the scorecard table), with bad lines
// skipped rather than failing the run.
func TestLenientAndEpochsTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "daemon.jsonl")
	trace := `{"kind":"event","name":"serve.arrival","fields":{"outcome":"queued"}}
this line is not json
{"kind":"span","name":"serve.epoch","dur_us":1200,"fields":{"epoch":3,"slot":3,"policy":"greedy","status":"ok","batch":5,"accepted":4,"rejected":1,"shed":0,"queue_depth":2,"elapsed_ms":1.2,"budget_ms":40,"future_field":{"x":1}}}
`
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-in", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "Service epochs") {
		t.Errorf("output missing epochs table:\n%s", got)
	}
	for _, want := range []string{"greedy", "ok", "expired"} {
		if !strings.Contains(got, want) {
			t.Errorf("epochs table missing %q:\n%s", want, got)
		}
	}
}
