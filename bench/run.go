package main

import (
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"time"

	"metis/internal/obs"
)

// pass is one set-up, measured segment and teardown of a workload.
type pass struct {
	o        *outcome
	setup    time.Duration
	alloc    uint64             // bytes allocated during the segment
	counters map[string]float64 // obs counter deltas over the segment
}

func runPass(sp spec, p params, tr *memTracer) (*pass, error) {
	w := sp.new(p)
	defer w.teardown()
	t0 := time.Now()
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ps := &pass{setup: time.Since(t0)}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := obs.Snapshot()
	o, err := w.run()
	if err != nil {
		return nil, err
	}
	ps.counters = obsDelta(before, obs.Snapshot())
	runtime.ReadMemStats(&m1)
	ps.o, ps.alloc = o, m1.TotalAlloc-m0.TotalAlloc
	return ps, nil
}

// sized returns p for one pass of d.
func (sp spec) sized(p params, d time.Duration) params {
	p.window = d
	p.units = int(math.Round(d.Seconds() * sp.unitsPerSec))
	if p.units < 1 {
		p.units = 1
	}
	return p
}

// runPasses runs n passes of d each, every one the same work.
func runPasses(sp spec, p params, tr func(i int) *memTracer, n int, d time.Duration) ([]*pass, error) {
	p = sp.sized(p, d)
	var out []*pass
	for i := 0; i < n; i++ {
		ps, err := runPass(sp, p, tr(i))
		if err != nil {
			return nil, err
		}
		out = append(out, ps)
	}
	return out, nil
}

// bestOf merges passes that did identical work into one outcome that
// keeps, for every timed step and every latency sample, the fastest
// time any pass measured for it. On a shared host a memory-bound solve
// slows by 10–20% for seconds at a time while a neighbour is busy; the
// interference only ever adds time, so the minimum over passes spread
// across the run is the estimate of the work's own cost, and it is
// what makes two runs of one commit agree. A change that makes the work
// slower moves every pass, and so the minimum.
//
// The passes must agree on what they decided: the synchronous
// workloads are deterministic for a seed, which this checks on every
// timed run.
func bestOf(passes []*pass) *outcome {
	first := passes[0].o
	best := *first
	best.steps = append(samples(nil), first.steps...)
	best.lat = append(samples(nil), first.lat...)
	fastest := first
	for _, ps := range passes[1:] {
		o := ps.o
		best.attempted += o.attempted
		best.failed += o.failed
		best.problems = append(best.problems, o.problems...)
		if !reflect.DeepEqual(o.cycles, first.cycles) {
			best.fail("not deterministic: two passes of one seed decided differently (%+v then %+v)", first.cycles, o.cycles)
		}
		if len(o.steps) != len(best.steps) || len(o.lat) != len(best.lat) {
			best.fail("passes did different work: %d steps and %d samples, then %d and %d",
				len(best.steps), len(best.lat), len(o.steps), len(o.lat))
			continue
		}
		for i, v := range o.steps {
			if v < best.steps[i] {
				best.steps[i] = v
			}
		}
		for i, v := range o.lat {
			if v < best.lat[i] {
				best.lat[i] = v
			}
		}
		if o.wall < fastest.wall {
			fastest = o
		}
	}
	if len(best.steps) > 0 {
		var sum float64
		for _, v := range best.steps {
			sum += v
		}
		best.wall = time.Duration(sum * float64(time.Millisecond))
	}
	best.info, best.layer = fastest.info, fastest.layer
	return &best
}

// runTimed is the run the end-to-end metrics come from: tracing off.
func runTimed(sp spec, p params) (*result, error) {
	d := p.measured() / time.Duration(sp.passes)
	passes, err := runPasses(sp, p, func(int) *memTracer { return nil }, sp.passes, d)
	if err != nil {
		return nil, err
	}
	// Set up several times: one set-up of a few milliseconds is mostly
	// the noise of a directory create and an fsync. Every pass had its own
	// set-up; the rest are extra. The reported figure is their lower
	// quartile: set-ups fall into a fast mode and one several times
	// slower (a journal flush, a GC), and the median flips between the
	// two with the share of slow ones.
	var setups []float64
	for i := sp.passes; i < sp.setupReps; i++ {
		w := sp.new(sp.sized(p, d))
		t0 := time.Now()
		err := w.setup(nil)
		setups = append(setups, time.Since(t0).Seconds())
		w.teardown()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	var allocs []float64
	for _, ps := range passes {
		setups = append(setups, ps.setup.Seconds())
		allocs = append(allocs, float64(ps.alloc)/1024/float64(ps.o.decided))
	}
	o := bestOf(passes)
	if o.decided == 0 || o.wall <= 0 || len(o.lat) == 0 {
		return nil, fmt.Errorf("run decided %d requests in %v with %d latency samples", o.decided, o.wall, len(o.lat))
	}
	lat := o.lat.digest()
	res := newResult(sp, p, false, o)
	res.Metrics = map[string]metric{
		"setup_s":               {samples(setups).sorted().quantile(0.25), "s"},
		"decisions_per_s":       {float64(o.decided) / o.wall.Seconds(), "1/s"},
		"latency_p50_ms":        {lat.P50, "ms"},
		"latency_tail_ms":       {lat.Tail, "ms"},
		"profit_per_kreq":       {1000 * o.profit / float64(o.offered), "value"},
		"alloc_kb_per_decision": {median(allocs), "kB"},
		"peak_rss_mb":           {peakRSSMB(), "MB"},
	}
	res.Info["latency_tail_pct"] = metric{lat.TailPct, "%"}
	res.Info["latency_samples"] = metric{float64(lat.N), "count"}
	res.Info["wall_s"] = metric{o.wall.Seconds(), "s"}
	res.Info["passes"] = metric{float64(len(passes)), "count"}
	res.Info["decided"] = metric{float64(o.decided), "count"}
	res.Info["offered"] = metric{float64(o.offered), "count"}
	res.Info["alloc_mb"] = metric{median(allocs) * float64(o.decided) / 1024, "MB"}
	res.Info["failed_frac"] = metric{ratio(float64(o.failed), float64(o.attempted)), "ratio"}
	return res, nil
}

func newResult(sp spec, p params, traced bool, o *outcome) *result {
	r := &result{
		Workload: sp.name, Trace: traced, Seed: p.seed, Seconds: p.measured().Seconds(), Quick: p.quick,
		Attempted: o.attempted, Failed: o.failed, Problems: o.problems,
		Info: map[string]metric{},
	}
	for k, v := range o.info {
		r.Info[k] = v
	}
	r.Correct = o.failed == 0 && len(o.problems) == 0 && o.attempted > 0
	return r
}

// runTraced is the run the per-layer metrics come from. Half the
// window runs untraced as the reference, half traced, on the same
// inputs and the same units of work; the difference in working time
// per decision is the tracing overhead, and on the synchronous
// workloads the two must decide identically or the trace is rejected.
// The layer probes then run on the inputs the traced passes captured.
func runTraced(sp spec, p params, outDir string) (*result, error) {
	n := (sp.passes + 1) / 2
	d := p.measured() / time.Duration(2*n)
	refs, err := runPasses(sp, p, func(int) *memTracer { return nil }, n, d)
	if err != nil {
		return nil, err
	}
	ref := bestOf(refs)
	// One tracer per pass; spans and counters are read off the last.
	tracers := make([]*memTracer, n)
	for i := range tracers {
		tracers[i] = newMemTracer()
	}
	traced, err := runPasses(sp, p, func(i int) *memTracer { return tracers[i] }, n, d)
	if err != nil {
		return nil, err
	}
	o := bestOf(traced)
	last := traced[n-1]
	spans := addTickPhases(tracers[n-1].link())
	if !reflect.DeepEqual(ref.cycles, o.cycles) {
		o.fail("trace rejected: the traced policy decided %+v, the program's %+v", o.cycles, ref.cycles)
	}
	layer := last.o.layer
	spanLayers(layer, spans, last.o)
	counterLayers(layer, last.counters, spans, last.o)
	layer["trace.overhead_frac"] = ratio(o.busyPerDecision(), ref.busyPerDecision()) - 1
	if err := runProbes(layer, o.probe, p.tmp); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if err := writeSpans(filepath.Join(outDir, "trace-"+sp.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	res := newResult(sp, p, true, o)
	res.Metrics = map[string]metric{}
	for _, def := range perLayer {
		res.Metrics[def.Name] = metric{layer[def.Name], def.Unit}
	}
	res.Info["trace.spans"] = metric{float64(len(spans)), "count"}
	res.Info["trace.events_dropped"] = metric{float64(tracers[n-1].events), "count"}
	return res, nil
}

// obsDelta is the change of every process-wide obs counter over a
// segment.
func obsDelta(before, after map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}
