// Package obs is the solver-wide instrumentation layer: cheap atomic
// counters and gauges collected in a central registry, an unregistered
// latency histogram its owner digests, a structured trace sink for the
// Metis alternation timeline, and HTTP exposition (Prometheus text
// format and pprof).
//
// Design rules, in priority order:
//
//  1. The disabled path must stay bit-identical and within noise of the
//     uninstrumented code. Counters are therefore incremented only at
//     solve-level boundaries (one or a handful of atomic adds per LP
//     solve, MIP node, or alternation round — never per simplex inner
//     loop element), and hot loops accumulate into plain ints that are
//     flushed once. Tracing is off whenever the Tracer is nil, and every
//     time.Now() call that exists only to feed a span is gated behind
//     that nil check.
//  2. Counters never influence solver decisions: they are write-only
//     from the solver's point of view, so enabling or reading them
//     cannot perturb results.
//  3. Everything is safe for concurrent use — the experiment harness
//     runs scenario points on worker pools.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind distinguishes metric types in expositions.
type Kind int

// Metric kinds.
const (
	// KindCounter is a monotonically increasing count.
	KindCounter Kind = iota + 1
	// KindGauge is a last-value measurement.
	KindGauge
)

// Metric is the registry's view of one instrument.
type Metric interface {
	// Name is the dotted metric name, e.g. "lp.warm.stalls".
	Name() string
	// Help is the one-line description.
	Help() string
	// Kind reports counter vs gauge semantics.
	Kind() Kind
	// Float returns the current value as a float64.
	Float() float64
	// reset zeroes the instrument (tests and per-run deltas).
	reset()
}

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Help returns the metric description.
func (c *Counter) Help() string { return c.help }

// Kind returns KindCounter.
func (c *Counter) Kind() Kind { return KindCounter }

// Float returns the count as a float64.
func (c *Counter) Float() float64 { return float64(c.v.Load()) }

func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an atomic last-value integer gauge.
type Gauge struct {
	name, help string
	v          atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the stored value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Help returns the metric description.
func (g *Gauge) Help() string { return g.help }

// Kind returns KindGauge.
func (g *Gauge) Kind() Kind { return KindGauge }

// Float returns the value as a float64.
func (g *Gauge) Float() float64 { return float64(g.v.Load()) }

func (g *Gauge) reset() { g.v.Store(0) }

// registry is the process-wide instrument registry. Instruments are
// registered once as package variables; registration order is kept so
// expositions group related metrics together.
var registry = struct {
	mu     sync.Mutex
	list   []Metric
	byName map[string]Metric
}{byName: make(map[string]Metric)}

func register(m Metric) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[m.Name()]; dup {
		panic("obs: duplicate metric name " + m.Name())
	}
	registry.byName[m.Name()] = m
	registry.list = append(registry.list, m)
}

// NewCounter registers and returns a counter. Names are dotted paths
// ("lp.pivots"); duplicate registration panics.
func NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	register(c)
	return c
}

// NewGauge registers and returns an integer gauge.
func NewGauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	register(g)
	return g
}

// Each calls fn for every registered metric in registration order.
func Each(fn func(Metric)) {
	registry.mu.Lock()
	list := append([]Metric(nil), registry.list...)
	registry.mu.Unlock()
	for _, m := range list {
		fn(m)
	}
}

// Snapshot returns the current value of every registered metric, keyed
// by name. Counter values are exact; gauges are last-written.
func Snapshot() map[string]float64 {
	out := make(map[string]float64)
	Each(func(m Metric) { out[m.Name()] = m.Float() })
	return out
}

// ResetAll zeroes every registered instrument. Intended for tests and
// for per-run deltas in one-shot tools; production servers should leave
// counters monotone.
func ResetAll() {
	Each(func(m Metric) { m.reset() })
}

// PromName converts a dotted metric name to Prometheus form:
// "lp.warm.stalls" → "metis_lp_warm_stalls".
func PromName(name string) string {
	r := strings.NewReplacer(".", "_", "-", "_", "/", "_")
	return "metis_" + r.Replace(name)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4), sorted by metric name.
func WritePrometheus(w io.Writer) error {
	var list []Metric
	Each(func(m Metric) { list = append(list, m) })
	sort.Slice(list, func(a, b int) bool { return list[a].Name() < list[b].Name() })
	for _, m := range list {
		kind := "counter"
		if m.Kind() == KindGauge {
			kind = "gauge"
		}
		pn := PromName(m.Name())
		if m.Help() != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", pn, m.Help()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n%s %v\n", pn, kind, pn, m.Float()); err != nil {
			return err
		}
	}
	return nil
}
