package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"metis/internal/obs"
)

// Tracks separate timelines that run concurrently: everything the tick
// loop and the solvers emit is sequential on trackTick, the load
// generator's POST spans are sequential on trackClient. Parents are
// resolved by interval containment inside one track, so a POST that
// happens to fall inside a tick is not mistaken for its child.
const (
	trackTick = iota
	trackClient
)

// span is one traced interval. Parent and Trace are filled by link():
// Trace is the id of the root span (one per tick, solve or POST), so
// all spans of one unit of work share it.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Trace  int           `json:"trace"`
	Track  int           `json:"track"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"` // since the tracer's epoch
	End    time.Duration `json:"end_ns"`
	Self   time.Duration `json:"self_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// memTracer keeps spans in memory until the run ends. It implements
// obs.Tracer for the spans the program already emits (lp.solve,
// taa.solve, serve.epoch, …) and offers begin for the benchmark's own
// spans around calls into a layer. Point events (serve.arrival, one
// per submit) are only counted: at flood rates they would dominate the
// memory of the trace without adding a boundary.
type memTracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	events int
}

func newMemTracer() *memTracer { return &memTracer{epoch: time.Now()} }

// Emit implements obs.Tracer.
func (t *memTracer) Emit(r obs.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r.Kind != "span" {
		t.events++
		return
	}
	t.add(trackTick, r.Name, r.Start, r.Start.Add(r.Dur))
}

func (t *memTracer) add(track int, name string, start, end time.Time) {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Track: track, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch),
	})
}

// begin opens a benchmark-owned span; the returned func closes it. A
// nil tracer returns a no-op so call sites need no guard.
func (t *memTracer) begin(track int, name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() {
		end := time.Now()
		t.mu.Lock()
		t.add(track, name, start, end)
		t.mu.Unlock()
	}
}

// link resolves parents by containment within each track and computes
// self times. It returns the spans ordered by track and start.
func (t *memTracer) link() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	linkSpans(out)
	return out
}

// linkSpans sorts spans by (track, start, longest first), assigns each
// span the innermost earlier span of its track that contains it as
// parent, and sets Self to the duration minus the part its children
// cover.
func linkSpans(sp []span) {
	sort.SliceStable(sp, func(a, b int) bool {
		x, y := sp[a], sp[b]
		if x.Track != y.Track {
			return x.Track < y.Track
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End > y.End
	})
	var stack []int // indices of open ancestors
	covered := make([]time.Duration, len(sp))
	lastEnd := make([]time.Duration, len(sp)) // end of the children merged so far
	for i := range sp {
		for len(stack) > 0 {
			p := sp[stack[len(stack)-1]]
			if p.Track == sp[i].Track && sp[i].Start >= p.Start && sp[i].End <= p.End {
				break
			}
			stack = stack[:len(stack)-1]
		}
		sp[i].Parent, sp[i].Trace = 0, sp[i].ID
		if len(stack) > 0 {
			pi := stack[len(stack)-1]
			sp[i].Parent, sp[i].Trace = sp[pi].ID, sp[pi].Trace
			// Children arrive in start order; count only the part of this
			// one that no earlier sibling already covered.
			from := sp[i].Start
			if lastEnd[pi] > from {
				from = lastEnd[pi]
			}
			if sp[i].End > from {
				covered[pi] += sp[i].End - from
				lastEnd[pi] = sp[i].End
			}
		}
		stack = append(stack, i)
	}
	for i := range sp {
		sp[i].Self = sp[i].dur() - covered[i]
	}
}

// spanSums totals duration and self time per span name.
type spanSum struct {
	N         int
	Dur, Self time.Duration
	Durs      samples // per-span durations, ms
}

func sumSpans(sp []span) map[string]*spanSum {
	out := map[string]*spanSum{}
	for _, s := range sp {
		a := out[s.Name]
		if a == nil {
			a = &spanSum{}
			out[s.Name] = a
		}
		a.N++
		a.Dur += s.dur()
		a.Self += s.Self
		a.Durs.add(s.dur())
	}
	return out
}

func writeSpans(path string, sp []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range sp {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// asObs returns t as an obs.Tracer, or a nil interface for a nil t
// (a typed nil would switch the program's tracing on).
func (t *memTracer) asObs() obs.Tracer {
	if t == nil {
		return nil
	}
	return t
}
