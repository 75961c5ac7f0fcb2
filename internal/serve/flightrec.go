package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"metis/internal/fsx"
	"metis/internal/obs"
)

// Flight-recorder defaults.
const (
	// DefaultFlightKeep is how many postmortem bundles are retained and
	// served over /debug/flightrec.
	DefaultFlightKeep = 8
	// DefaultShedBurst is the per-epoch shed count that counts as a
	// burst anomaly.
	DefaultShedBurst = 16
	// DefaultFlightCooldown is the minimum number of epochs between
	// bundle dumps, so a persistently sick daemon does not flood disk.
	DefaultFlightCooldown = 5
)

// Fixed flight-recorder sizes and thresholds.
const (
	// flightSpanRing is how many recent trace records the recorder keeps
	// for inclusion in bundles.
	flightSpanRing = 256
	// coldFallbackBurst is the per-epoch count of warm-repair →
	// cold-solve fallbacks that counts as an anomaly.
	coldFallbackBurst = 8
	// dualColdBailBurst is the per-epoch count of dual-cold-start bails
	// (lp.pricing.dual_cold_bails) that counts as an anomaly.
	dualColdBailBurst = 4
)

// FlightConfig arms the anomaly flight recorder. The zero value (with
// the struct present) records in memory only; set Dir to also dump
// bundles to disk.
type FlightConfig struct {
	// Dir, when set, is where postmortem bundles are written as JSON
	// files (atomically, tmp + rename). Empty keeps bundles in memory
	// only.
	Dir string
	// Keep bounds the bundles retained in memory and served over HTTP
	// (default DefaultFlightKeep).
	Keep int
	// ShedBurst triggers a dump when one epoch sheds at least this many
	// arrivals (default DefaultShedBurst).
	ShedBurst int64
	// Cooldown is the minimum number of epochs between dumps (default
	// DefaultFlightCooldown). Triggers inside the cooldown are counted
	// (serve.flight.suppressed) but not dumped.
	Cooldown int
}

func (c FlightConfig) withDefaults() FlightConfig {
	if c.Keep <= 0 {
		c.Keep = DefaultFlightKeep
	}
	if c.ShedBurst <= 0 {
		c.ShedBurst = DefaultShedBurst
	}
	if c.Cooldown <= 0 {
		c.Cooldown = DefaultFlightCooldown
	}
	return c
}

// FlightBundle is one self-contained postmortem: the triggering epoch's
// scorecard record and counter deltas, the recent epoch history, the
// full counter snapshot, the ledger occupancy at the moment of the
// anomaly, and the recent trace records the recorder's span ring held.
type FlightBundle struct {
	ID               int                `json:"id"`
	Trigger          string             `json:"trigger"`
	Policy           string             `json:"policy"`
	DumpedUnixMillis int64              `json:"dumpedUnixMillis"`
	Epoch            EpochRecord        `json:"epoch"`
	RecentEpochs     []EpochRecord      `json:"recentEpochs"`
	CounterDelta     map[string]float64 `json:"counterDelta"` // non-zero counter movement over the triggering epoch
	Counters         map[string]float64 `json:"counters"`     // full snapshot at the dump
	Ledger           LedgerImage        `json:"ledger"`       // per-(link,slot) occupancy + purchases
	Spans            []obs.WireRecord   `json:"spans,omitempty"`
	File             string             `json:"file,omitempty"`
}

// flightRecorder watches epoch records for anomalies and dumps
// postmortem bundles. Trigger evaluation runs under the Server's mu
// (dumpTrigger); bundle construction and disk IO run outside it (dump).
type flightRecorder struct {
	cfg  FlightConfig
	ring *spanRing

	mu            sync.Mutex
	bundles       []FlightBundle // newest last
	nextID        int
	lastDumpEpoch int
	dumped        bool
}

func newFlightRecorder(cfg FlightConfig) *flightRecorder {
	cfg = cfg.withDefaults()
	return &flightRecorder{
		cfg:    cfg,
		ring:   newSpanRing(flightSpanRing),
		nextID: 1,
	}
}

// Flight-recorder trigger names.
const (
	TriggerDegradedEpoch = "degraded-epoch"
	TriggerReplanDegrade = "replan-degraded"
	TriggerShedBurst     = "shed-burst"
	TriggerDualColdBails = "dual-cold-bail-spike"
	TriggerColdFallback  = "cold-fallback-burst"
)

// dumpTrigger names the anomaly in rec that warrants a bundle, or
// returns "" when there is none or the cooldown suppresses it. Counters
// record every trigger, dumped or suppressed.
func (f *flightRecorder) dumpTrigger(rec EpochRecord) string {
	var trig string
	switch {
	case rec.Degraded:
		trig = TriggerDegradedEpoch
	case rec.ReplansDegraded > 0:
		trig = TriggerReplanDegrade
	case rec.Shed >= f.cfg.ShedBurst:
		trig = TriggerShedBurst
	case rec.DualColdBails >= dualColdBailBurst:
		trig = TriggerDualColdBails
	case rec.ColdFallbacks >= coldFallbackBurst:
		trig = TriggerColdFallback
	default:
		return ""
	}
	cFlightTriggers.Inc()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dumped && rec.Epoch-f.lastDumpEpoch < f.cfg.Cooldown {
		cFlightSuppressed.Inc()
		return ""
	}
	f.lastDumpEpoch, f.dumped = rec.Epoch, true
	return trig
}

// dump builds the bundle and persists it. before/after are the tick's
// counter snapshots; recent is the scorecard history; ledger is the
// occupancy image captured at commit time.
func (f *flightRecorder) dump(trig string, rec EpochRecord, recent []EpochRecord, ledger LedgerImage, before, after map[string]float64) {
	delta := make(map[string]float64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			delta[k] = d
		}
	}
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.mu.Unlock()

	b := FlightBundle{
		ID:               id,
		Trigger:          trig,
		Policy:           rec.Policy,
		DumpedUnixMillis: time.Now().UnixMilli(),
		Epoch:            rec,
		RecentEpochs:     recent,
		CounterDelta:     delta,
		Counters:         after,
		Ledger:           ledger,
		Spans:            f.ring.snapshot(),
	}
	if f.cfg.Dir != "" {
		path := filepath.Join(f.cfg.Dir, fmt.Sprintf("flight-%06d-%s.json", rec.Epoch, trig))
		if err := writeFlightFile(path, &b); err != nil {
			// Disk trouble must never take the daemon down; the bundle
			// still lands in memory and on /debug/flightrec.
			fmt.Fprintf(os.Stderr, "serve: flight recorder: %v\n", err)
		} else {
			b.File = path
		}
	}
	f.mu.Lock()
	f.bundles = append(f.bundles, b)
	if len(f.bundles) > f.cfg.Keep {
		f.bundles = append(f.bundles[:0], f.bundles[len(f.bundles)-f.cfg.Keep:]...)
	}
	f.mu.Unlock()
	cFlightDumps.Inc()
}

// writeFlightFile writes the bundle atomically and durably (temp file,
// fsync, rename, directory fsync).
func writeFlightFile(path string, b *FlightBundle) error {
	return fsx.WriteAtomic(path, 0o644, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(b)
	})
}

// FlightBundles returns the retained postmortem bundle headers, without
// the heavy payload (newest last); empty when the recorder is disabled.
func (s *Server) FlightBundles() []FlightBundle {
	f := s.flight
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightBundle, 0, len(f.bundles))
	for _, b := range f.bundles {
		out = append(out, FlightBundle{
			ID: b.ID, Trigger: b.Trigger, Policy: b.Policy,
			DumpedUnixMillis: b.DumpedUnixMillis, Epoch: b.Epoch, File: b.File,
		})
	}
	return out
}

// FlightBundle returns the full retained bundle with the given id.
func (s *Server) FlightBundle(id int) (FlightBundle, bool) {
	f := s.flight
	if f == nil {
		return FlightBundle{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, b := range f.bundles {
		if b.ID == id {
			return b, true
		}
	}
	return FlightBundle{}, false
}

// spanRing is the ring of recent trace records the flight recorder
// snapshots into bundles. It implements obs.Tracer so it can sit behind
// a tee with the user's tracer.
type spanRing struct {
	ring[obs.WireRecord]
	epoch time.Time
}

func newSpanRing(size int) *spanRing {
	return &spanRing{ring: ring[obs.WireRecord]{buf: make([]obs.WireRecord, size)}, epoch: time.Now()}
}

// Emit implements obs.Tracer.
func (r *spanRing) Emit(rec obs.Record) {
	r.push(obs.WireRecord{
		TUS:    rec.Start.Sub(r.epoch).Microseconds(),
		Kind:   rec.Kind,
		Name:   rec.Name,
		DurUS:  rec.Dur.Microseconds(),
		Fields: rec.Fields,
	})
}

// teeTracer fans one Emit out to both sinks.
type teeTracer struct{ a, b obs.Tracer }

// Emit implements obs.Tracer.
func (t teeTracer) Emit(r obs.Record) {
	t.a.Emit(r)
	t.b.Emit(r)
}

// combineTracers returns a tracer emitting to every non-nil argument
// (nil when both are nil).
func combineTracers(a, b obs.Tracer) obs.Tracer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	default:
		return teeTracer{a, b}
	}
}
