// Package exp regenerates every figure of the paper's evaluation
// (Section V): Fig. 3a–3c (Metis vs the exact optima on SUB-B4),
// Fig. 4a–4b (MAA vs MinCost and the randomized-rounding cost ratio),
// Fig. 4c–4d (TAA vs Amoeba under fixed bandwidth), and Fig. 5a–5c
// (Metis vs EcoFlow on B4) — plus ablations over Metis's design knobs.
//
// Absolute numbers differ from the paper (the substrate is a pure-Go
// reimplementation, the workload synthetic), but each figure preserves
// the paper's comparison shape; EXPERIMENTS.md records paper-vs-measured
// for every claim.
package exp

import (
	"context"
	"time"

	"metis/internal/core"
	"metis/internal/obs"
)

// Config parameterizes the experiment harness.
type Config struct {
	// Seed drives workload generation and all randomized algorithms.
	Seed int64
	// Slots is the billing cycle length (default 12).
	Slots int
	// PathsPerRequest is the candidate path set size (default 3).
	PathsPerRequest int

	// Fig3Ks are the request counts of the SUB-B4 sweep (Fig. 3a–3c).
	Fig3Ks []int
	// OptNodes is the branch & bound node budget of each exact-solver
	// call; the anytime incumbent is reported (the paper's Gurobi
	// likewise ran for bounded time — over 1000 s at 400 requests). It
	// is a work budget, not a clock, so the OPT columns depend only on
	// code and seed.
	OptNodes int

	// Fig4aKs are the request counts of the B4 cost sweep (Fig. 4a).
	Fig4aKs []int
	// Fig4bK is the request count per network for the rounding-ratio
	// experiment (Fig. 4b).
	Fig4bK int
	// Fig4bRepeats is the number of independent randomized roundings
	// (paper: 1000).
	Fig4bRepeats int
	// Fig4cKs are the request counts of the TAA-vs-Amoeba sweep
	// (Fig. 4c–4d).
	Fig4cKs []int
	// UniformCapUnits is the fixed per-link bandwidth of Fig. 4c–4d in
	// units (paper: 100 Gbps = 10 units).
	UniformCapUnits int

	// Fig5Ks are the request counts of the Metis-vs-EcoFlow sweep
	// (Fig. 5a–5c).
	Fig5Ks []int

	// Theta, TauStep, MAARounds configure Metis (see core.Config).
	Theta     int
	TauStep   int
	MAARounds int

	// Parallel bounds the goroutines used to evaluate independent
	// scenario points of each figure sweep (<=1 means sequential).
	// Points own their instances and randomness (shared-RNG sweeps
	// pre-draw per-point blocks), so every figure is identical for any
	// value, except its wall-clock columns.
	Parallel int

	// coldLP disables simplex warm starts and incremental relaxation
	// models in every Metis run (see core.Config.ColdLP), restoring the
	// pre-warm-start behavior bit-for-bit. It is the oracle the
	// package's warm/cold parity tests compare every figure against.
	coldLP bool

	// Tracer, when non-nil, threads the structured trace sink into every
	// Metis solve of the figure sweeps (see core.Config.Tracer). Note
	// that parallel sweeps interleave their spans; the per-span fields
	// keep them attributable.
	Tracer obs.Tracer

	// Stats, when non-nil, collects per-point solver statistics during
	// figure runs: exact-reference B&B node counts, statuses and gaps,
	// and Metis per-round histories. Nil disables collection.
	Stats *RunStats

	// Ctx, when non-nil, makes the whole run cancellable (e.g. wired to
	// SIGINT): every scenario point threads it into its solves, so a
	// cancellation stops the sweep within one solver checkpoint. Metis
	// points degrade to their best incumbent; stage-only points (pure
	// MAA/TAA sweeps, exact references without a fallback) return an
	// error matching solvectx.ErrCanceled.
	Ctx context.Context
	// Deadline, when positive, bounds each scenario point's wall time:
	// every point gets a fresh context.WithTimeout(Ctx, Deadline), so an
	// over-budget Metis solve returns its best incumbent (Degraded) and
	// the sweep moves on. Zero leaves points unbounded.
	Deadline time.Duration
}

// pointCtx returns the context for one scenario point and its cancel
// function. With neither Ctx nor Deadline set it returns a nil context
// and a no-op cancel, keeping every solve on the exact nil-ctx path
// (bit-identical outputs).
func (c Config) pointCtx() (context.Context, context.CancelFunc) {
	if c.Deadline <= 0 {
		if c.Ctx == nil {
			return nil, func() {}
		}
		return c.Ctx, func() {}
	}
	parent := c.Ctx
	if parent == nil {
		parent = context.Background()
	}
	return context.WithTimeout(parent, c.Deadline)
}

// metisConfig is the Metis configuration every figure solves with;
// sweeps that vary θ, the τ rule or the seed override those fields.
func (c Config) metisConfig() core.Config {
	return core.Config{
		Theta: c.Theta, TauStep: c.TauStep, MAARounds: c.MAARounds,
		Seed: c.Seed, ColdLP: c.coldLP, Tracer: c.Tracer,
	}
}

// DefaultConfig returns paper-scale settings (a full run takes a few
// minutes on a laptop).
func DefaultConfig() Config {
	return Config{
		Seed:            1,
		Slots:           12,
		PathsPerRequest: 3,
		Fig3Ks:          []int{100, 200, 300, 400},
		OptNodes:        10000,
		Fig4aKs:         []int{100, 200, 300, 400, 500},
		Fig4bK:          100,
		Fig4bRepeats:    1000,
		Fig4cKs:         []int{200, 400, 600, 800, 1000},
		UniformCapUnits: 10,
		Fig5Ks:          []int{100, 200, 300, 400, 500},
		Theta:           8,
		TauStep:         1,
		MAARounds:       3,
	}
}

// QuickConfig returns a scaled-down configuration for benchmarks and
// smoke tests (seconds, not minutes).
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Fig3Ks = []int{40, 80}
	cfg.OptNodes = 6000
	cfg.Fig4aKs = []int{60, 120}
	cfg.Fig4bK = 40
	cfg.Fig4bRepeats = 100
	cfg.Fig4cKs = []int{100, 200}
	cfg.Fig5Ks = []int{60, 120}
	cfg.Theta = 4
	cfg.MAARounds = 2
	return cfg
}
