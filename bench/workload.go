package main

import (
	"fmt"
	"time"

	"metis/internal/demand"
	"metis/internal/wan"
)

// params are the inputs of one run of one workload.
type params struct {
	seed    int64
	seconds float64
	quick   bool   // every workload ≤ 2 s, same code paths
	tmp     string // scratch directory for WAL and standby directories

	// One pass of a run (set by runPasses): the paced workloads run the
	// whole cycles of the clock that fit in window, the closed loops
	// exactly units units of work (cycles, solve rounds, recoveries).
	window time.Duration
	units  int
}

// measured returns the run length: --seconds, or 1.5 s under -quick.
func (p params) measured() time.Duration {
	if p.quick {
		return 1500 * time.Millisecond
	}
	return time.Duration(p.seconds * float64(time.Second))
}

// pick returns the full-size value, or the quick one under -quick.
func (p params) pick(full, quick int) int {
	if p.quick {
		return quick
	}
	return full
}

// workload is one set of inputs the benchmark runs. setup builds
// everything a measured segment needs (inputs, WAL, server, listener)
// and is what setup_s times; with tr set it installs the traced
// policies and the tracer. run measures one pass on that set-up;
// teardown stops what setup started and removes its directories. A
// workload value is used for one setup/run/teardown.
type workload interface {
	setup(tr *memTracer) error
	run() (*outcome, error)
	teardown()
}

// spec names a workload and says why it exists.
type spec struct {
	name      string
	why       string
	setupReps int // set-ups timed per run; setup_s is their lower quartile
	// passes is how many times a timed run repeats the same work, each
	// on a fresh set-up, keeping the fastest time of every step (see
	// bestOf). The paced workloads run once: the clock sets their times.
	passes int
	// unitsPerSec sizes a closed loop's pass: a pass of d does
	// round(d·unitsPerSec) units of work, at least one. It is the
	// workload's speed on the reference host (README), fixed here so that
	// a seed always gives the same work however noisy the run; a change
	// that speeds the program up shortens the run, it does not change
	// its inputs.
	unitsPerSec float64
	new         func(params) workload
}

// cycleSum is what a synchronous workload must reproduce exactly for a
// seed.
type cycleSum struct {
	Profit   float64
	Accepted int
	Decided  int
}

// outcome is what one measured segment produced.
type outcome struct {
	wall    time.Duration // the timed window
	steps   samples       // closed loops: every timed step in order, ms; wall is their sum
	busy    time.Duration // time the program worked in it, if less than wall (paced runs: Σ ticks)
	decided int           // decisions produced in it
	offered int           // requests offered (denominator of profit)
	profit  float64
	lat     samples // the workload's operation latency, ms

	// attempted and failed count operations that needed a correct
	// answer and whether they got one: transport errors, invalid
	// inputs, requests never decided, solver errors, state mismatches.
	// A shed reply under overload is an answer; it is priced through
	// slo_miss_frac and profit instead.
	attempted, failed int
	problems          []string // failed correctness checks

	cycles []cycleSum         // per completed cycle, synchronous workloads
	info   map[string]metric  // workload-specific end-to-end figures
	layer  map[string]float64 // in-situ per-layer figures (traced segment)
	probe  *probeInput        // inputs captured for the layer probes
}

func newOutcome() *outcome {
	return &outcome{info: map[string]metric{}, layer: map[string]float64{}}
}

// step records one timed step of a closed loop.
func (o *outcome) step(d time.Duration) {
	o.wall += d
	o.steps.add(d)
}

// busyPerDecision is the program's working time per decision, the
// figure tracing overhead is taken on: the clock sets a paced run's
// wall, not the work.
func (o *outcome) busyPerDecision() float64 {
	b := o.busy
	if b == 0 {
		b = o.wall
	}
	return ratio(b.Seconds(), float64(o.decided))
}

func (o *outcome) fail(format string, a ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, a...))
}

// probeInput is what the layer probes run on: the first requests a
// workload offered, on its network.
type probeInput struct {
	net  *wan.Network
	reqs []demand.Request
}

// probeCap bounds the probe input: the *_k1000 layer metrics are
// defined at this size.
const probeCap = 1000

// capture keeps at most probeCap of reqs, evenly spaced so that a
// cycle ordered by slot keeps its mix of slots.
func capture(net *wan.Network, reqs []demand.Request) *probeInput {
	in := &probeInput{net: net}
	n := len(reqs)
	if n > probeCap {
		n = probeCap
	}
	for i := 0; i < n; i++ {
		in.reqs = append(in.reqs, reqs[i*len(reqs)/n])
	}
	return in
}

var workloads = []spec{
	{
		name:      "paced-nominal",
		why:       "open loop at 4000 req/s below the knee: the operator's decision latency, ack latency and profit with every layer running against the epoch clock",
		setupReps: 7,
		passes:    1,
		new:       func(p params) workload { return newPaced(p, 4000, 0) },
	},
	{
		name:      "paced-overload",
		why:       "open loop at 32000 req/s with the sustained-load flags: shed share, queueing delay and profit per offered request, where admission-order changes show",
		setupReps: 3,
		passes:    1,
		new:       func(p params) workload { return newPaced(p, 32000, 1100) },
	},
	{
		name:      "replan-capacity",
		why:       "closed loop with no budget binding, metis-incremental replans run to completion: core, spm sessions and warm lp do the work, serve and wal almost none",
		setupReps: 21,
		passes:    4, unitsPerSec: 4.4,
		new: func(p params) workload {
			return &syncLoad{serveBase: serveBase{p: p}, policy: "metis-incremental", k: p.pick(600, 120)}
		},
	},
	{
		name:      "intake-flood",
		why:       "closed loop over loopback HTTP with the greedy policy: JSON decode, wal group commit, sched and ledger commit do the work and no LP runs; then un-batched single acks",
		setupReps: 7,
		passes:    4, unitsPerSec: 2.8,
		new: func(p params) workload {
			return &syncLoad{serveBase: serveBase{p: p}, policy: "greedy", k: p.pick(24000, 2400), http: true, singles: p.pick(1000, 100)}
		},
	},
	{
		name:      "offline-plan",
		why:       "the paper's pipeline, core.Solve on fresh B4 instances at K=100 and K=1000: cold lp, spm model builds, maa, taa and chernoff with no warm session",
		setupReps: 9,
		passes:    4, unitsPerSec: 1.6,
		new: func(p params) workload { return &offline{p: p} },
	},
	{
		name:      "failover-recover",
		why:       "reads the log the other workloads write: standby promotion and cold restart from copies of a stopped leader's directories, state compared with the leader's",
		setupReps: 4,
		passes:    4, unitsPerSec: 20,
		new: func(p params) workload { return &failover{p: p} },
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
