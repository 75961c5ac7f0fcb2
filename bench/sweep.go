package main

import (
	"fmt"
	"path/filepath"
)

// sweepRates are the offered loads of -sweep, requests per second.
var sweepRates = []int{2000, 4000, 8000, 16000, 32000}

// sweepPoint is one rate step of the throughput-vs-latency curve.
type sweepPoint struct {
	OfferedPerS   int     `json:"offered_per_s"`
	DecisionsPerS float64 `json:"decisions_per_s"`
	LatencyP50Ms  float64 `json:"latency_p50_ms"`
	LatencyTailMs float64 `json:"latency_tail_ms"`
	TailPct       float64 `json:"latency_tail_pct"`
	ShedFrac      float64 `json:"shed_frac"`
	SLOMissFrac   float64 `json:"slo_miss_frac"`
	ProfitPerKreq float64 `json:"profit_per_kreq"`
	TickBusyFrac  float64 `json:"tick_busy_frac"`
	Correct       bool    `json:"correct"`
}

// runSweep is the exploratory mode: the paced driver with the
// sustained-load flags at each rate step, four cycles each. It is not
// gated; it draws the knee (where latency leaves the epoch floor and
// shedding starts) and the profit earned at each load.
func runSweep(p params, outDir string) error {
	p.window = 4 * slots * pacedEpoch
	if p.quick {
		p.window = slots * pacedEpoch
	}
	var points []sweepPoint
	for _, rate := range sweepRates {
		w := newPaced(p, rate, 1100)
		if err := w.setup(nil); err != nil {
			w.teardown()
			return err
		}
		o, err := w.run()
		w.teardown()
		if err != nil {
			return fmt.Errorf("rate %d: %w", rate, err)
		}
		d := o.lat.digest()
		pt := sweepPoint{
			OfferedPerS:   rate,
			DecisionsPerS: ratio(float64(o.decided), o.wall.Seconds()),
			LatencyP50Ms:  d.P50, LatencyTailMs: d.Tail, TailPct: d.TailPct,
			ShedFrac:      o.info["shed_frac"].Value,
			SLOMissFrac:   o.info["slo_miss_frac"].Value,
			ProfitPerKreq: 1000 * ratio(o.profit, float64(o.offered)),
			TickBusyFrac:  o.layer["serve.tick_busy_frac"],
			Correct:       o.failed == 0 && len(o.problems) == 0,
		}
		points = append(points, pt)
		fmt.Printf("sweep offered=%d/s decided=%.0f/s p50=%.1fms p%.4g=%.1fms shed=%.3f slo_miss=%.3f profit_per_kreq=%.1f tick_busy=%.2f\n",
			rate, pt.DecisionsPerS, pt.LatencyP50Ms, pt.TailPct, pt.LatencyTailMs, pt.ShedFrac, pt.SLOMissFrac, pt.ProfitPerKreq, pt.TickBusyFrac)
	}
	return writeJSON(filepath.Join(outDir, "sweep.json"), points)
}
