package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"metis/internal/demand"
	"metis/internal/wan"
)

func TestTailQuantileLeavesTenBeyond(t *testing.T) {
	for _, n := range []int{25, 60, 132, 999, 1000, 38400} {
		q := tailQuantile(n)
		beyond := float64(n) * (1 - q)
		if beyond < tailBeyond-1e-9 {
			t.Errorf("n=%d: quantile %.4f leaves %.2f samples beyond, want ≥ %d", n, q, beyond, tailBeyond)
		}
		if q > 0.99 {
			t.Errorf("n=%d: quantile %.4f above the p99 cap", n, q)
		}
		if n < 1000 && beyond > tailBeyond+1e-9 {
			t.Errorf("n=%d: quantile %.4f leaves %.2f beyond; a higher percentile still has %d", n, q, beyond, tailBeyond)
		}
	}
	if q := tailQuantile(15); q != 0.5 {
		t.Errorf("15 samples have no tail with 10 beyond above the median; got %.3f", q)
	}
	var s samples
	for i := 1; i <= 100; i++ {
		s = append(s, float64(i))
	}
	d := s.digest()
	if d.P50 != 50.5 || d.TailPct != 90 || d.N != 100 {
		t.Errorf("digest of 1..100 = %+v, want p50 50.5, tail at p90", d)
	}
	if above := 100 - int(d.Tail); above < tailBeyond {
		t.Errorf("tail value %.2f has only %d samples above it", d.Tail, above)
	}
}

func TestGenCycleDeterministicPerSeed(t *testing.T) {
	net := wan.SubB4()
	a, err := genCycle(net, 7, 3, 240)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genCycle(net, 7, 3, 240)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and cycle gave different requests")
	}
	// Cycle c of seed s is generator seed s·1000+c.
	g, _ := demand.NewGenerator(net, demand.DefaultGeneratorConfig(7003))
	want, _ := g.GenerateN(240)
	got := map[demand.Request]bool{}
	for _, r := range a.all() {
		got[r] = true
	}
	for _, r := range want {
		if !got[r] {
			t.Fatalf("request %+v of generator seed 7003 missing from cycle 3 of seed 7", r)
		}
	}
	if c, _ := genCycle(net, 8, 3, 240); reflect.DeepEqual(a, c) {
		t.Fatal("another seed gave the same requests")
	}
	for s, reqs := range a.bySlot {
		for _, r := range reqs {
			if r.Start != s {
				t.Fatalf("request with Start %d filed under slot %d", r.Start, s)
			}
		}
	}
}

func TestSchedulePostsAlignsArrivalsWithTheirSlot(t *testing.T) {
	cy, err := genCycle(wan.SubB4(), 1, 0, 1200)
	if err != nil {
		t.Fatal(err)
	}
	const c = 2
	posts, err := schedulePosts(cy, c)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range posts {
		n := int(p.due / pacedEpoch) // the tick interval the POST falls in
		if got := p.due - time.Duration(n)*pacedEpoch; got > pacedEpoch-postEvery {
			t.Errorf("POST due %v into its interval: less than one postEvery before the tick", got)
		}
		if n/slots != c {
			t.Fatalf("POST due at %v is outside cycle %d", p.due, c)
		}
		var reqs []demand.Request
		if err := json.Unmarshal(p.body, &reqs); err != nil {
			t.Fatal(err)
		}
		if len(reqs) != p.n {
			t.Fatalf("post says %d requests, body has %d", p.n, len(reqs))
		}
		for _, r := range reqs {
			if r.Start != n%slots {
				t.Fatalf("request with Start %d is due in the interval of slot %d", r.Start, n%slots)
			}
		}
		total += p.n
	}
	if total != cy.n {
		t.Fatalf("scheduled %d of %d requests", total, cy.n)
	}
}

func TestSpanSelfTime(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	sp := []span{
		{ID: 1, Track: trackTick, Name: "tick", Start: at(0), End: at(100)},
		{ID: 2, Track: trackTick, Name: "solve", Start: at(10), End: at(70)},
		{ID: 3, Track: trackTick, Name: "lp", Start: at(20), End: at(40)},
		{ID: 4, Track: trackTick, Name: "lp", Start: at(35), End: at(60)}, // overlaps its sibling
		{ID: 5, Track: trackTick, Name: "commit", Start: at(80), End: at(95)},
		{ID: 6, Track: trackClient, Name: "post", Start: at(5), End: at(50)}, // inside the tick, on another track
		{ID: 7, Track: trackTick, Name: "tick", Start: at(100), End: at(130)},
	}
	linkSpans(sp)
	got := map[int]span{}
	for _, s := range sp {
		got[s.ID] = s
	}
	for id, want := range map[int]struct {
		parent, trace int
		self          time.Duration
	}{
		1: {0, 1, at(25)}, // 100 − solve 60 − commit 15
		2: {1, 1, at(20)}, // 60 − union of the two lp spans (20..60)
		3: {2, 1, at(20)},
		4: {2, 1, at(25)},
		5: {1, 1, at(15)},
		6: {0, 6, at(45)},
		7: {0, 7, at(30)},
	} {
		s := got[id]
		if s.Parent != want.parent || s.Trace != want.trace || s.Self != want.self {
			t.Errorf("span %d (%s): parent %d trace %d self %v, want %d %d %v",
				id, s.Name, s.Parent, s.Trace, s.Self, want.parent, want.trace, want.self)
		}
	}
}

// TestTracedPolicyMatchesIncremental is what licenses reading a traced
// run as a trace of metis-incremental: the transcription decides every
// request of a 2-cycle, K=120 trace exactly as the program's policy.
func TestTracedPolicyMatchesIncremental(t *testing.T) {
	net := wan.SubB4()
	tmp := t.TempDir()
	mk := func(tr *memTracer) *rig {
		pol, err := newPolicy("metis-incremental", replanEvery, tr)
		if err != nil {
			t.Fatal(err)
		}
		r, err := newRig(tmp, rigConfig{net: net, policy: pol, epoch: time.Hour, tickBudget: 0.95, queueLimit: queueLimit, tracer: tr.asObs()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(r.close)
		return r
	}
	plain, traced := mk(nil), mk(newMemTracer())
	ctx := context.Background()
	var ids []int64
	for c := 0; c < 2; c++ {
		cy, err := genCycle(net, 5, c, 120)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			for _, r := range []*rig{plain, traced} {
				res := r.srv.SubmitAll(cy.bySlot[s])
				if r == plain {
					for _, b := range res {
						ids = append(ids, b.ID)
					}
				}
				r.srv.Tick(ctx)
			}
		}
	}
	if len(ids) != 240 {
		t.Fatalf("queued %d requests, want 240", len(ids))
	}
	for _, id := range ids {
		a, b := plain.srv.Decision(id), traced.srv.Decision(id)
		if a == nil || b == nil || a.Status != b.Status || !reflect.DeepEqual(a.Links, b.Links) || a.Epoch != b.Epoch {
			t.Fatalf("request %d: metis-incremental decided %+v, the traced transcription %+v", id, a, b)
		}
	}
	sa, sb := plain.srv.Stats(), traced.srv.Stats()
	if sa.Revenue != sb.Revenue || sa.PurchasedCost != sb.PurchasedCost || sa.Accepted != sb.Accepted {
		t.Fatalf("stats differ: %+v vs %+v", sa, sb)
	}
	if sa.Accepted == 0 || sa.Accepted == int64(len(ids)) {
		t.Fatalf("degenerate trace: %d of %d accepted", sa.Accepted, len(ids))
	}
	if tp := traced.policy.(*tracedMetis); tp.replans == 0 {
		t.Fatal("the traced policy never replanned")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "decisions_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105, 105}, "agree"},
		{lower, steady, []float64{115, 114, 116, 115, 115}, "regressed"},
		{lower, steady, []float64{85, 84, 86, 85, 85}, "agree"}, // better is never a regression
		{higher, steady, []float64{85, 84, 86, 85, 85}, "regressed"},
		{higher, steady, []float64{115}, "agree"},
		{lower, steady, []float64{80, 120, 100, 90, 110}, "unresolved"},
	} {
		if got, _, _ := verdict(c.def, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.def.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json and the tables the
// harness reports from equal.
func TestSpecMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the endToEnd table:\n%+v\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the perLayer table")
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, w.Name, workloads[i].name)
		}
	}
}

// TestQuickRuns drives every workload through both kinds of run at
// -quick size: the smoke a CI job would run.
func TestQuickRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about 2 s")
	}
	out := t.TempDir()
	p := params{seed: 3, quick: true, tmp: out}
	for _, sp := range workloads {
		timed, err := runTimed(sp, p)
		if err != nil {
			t.Fatalf("%s: %v", sp.name, err)
		}
		if !timed.Correct {
			t.Errorf("%s: timed run incorrect: %v", sp.name, timed.Problems)
		}
		for _, d := range endToEnd {
			if m, ok := timed.Metrics[d.Name]; !ok || m.Value == 0 {
				t.Errorf("%s: end-to-end metric %s missing or zero", sp.name, d.Name)
			}
		}
		traced, err := runTraced(sp, p, out)
		if err != nil {
			t.Fatalf("%s traced: %v", sp.name, err)
		}
		if !traced.Correct {
			t.Errorf("%s: traced run incorrect: %v", sp.name, traced.Problems)
		}
		if len(traced.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", sp.name, len(traced.Metrics), len(perLayer))
		}
	}
	ents, _ := os.ReadDir(out)
	for _, e := range ents {
		if e.IsDir() {
			t.Errorf("temporary directory %s left behind", e.Name())
		}
	}
}
