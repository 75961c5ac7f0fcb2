package exp

import (
	"strconv"

	"metis/internal/core"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/stats"
	"metis/internal/wan"
)

// ablationK is the fixed workload size used by the ablation studies.
// The θ and τ studies run on SUB-B4 at K=400, where the alternation
// (not the SP Updater's greedy seed) determines the outcome; the
// path-set and rounding studies run on B4 where routing diversity
// matters.
const ablationK = 200

// ablationKSub is the SUB-B4 workload size for the θ/τ studies.
const ablationKSub = 400

// AblationTheta sweeps the number of alternation rounds θ: the paper's
// easy-to-control knob trading profit for computation time.
func AblationTheta(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ablation-theta", Title: "Metis profit and time vs θ (SUB-B4, K=400)", XLabel: "theta",
		Series: []string{"profit", "accepted", "time_s"},
	}
	thetas := []int{1, 2, 4, 8, 16}
	results := make([]*core.Result, len(thetas))
	err := forEachPoint(len(thetas), cfg.Parallel, func(p int) error {
		// Each point builds its own instance: core.Solve mutates
		// nothing in it, but instance construction is cheap next to the
		// solve and per-point ownership keeps the sweep trivially safe.
		inst, err := buildInstance(cfg, wan.SubB4(), ablationKSub)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		mc := cfg.metisConfig()
		mc.Theta = thetas[p]
		res, err := core.SolveCtx(ctx, inst, mc)
		if err != nil {
			return err
		}
		results[p] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, theta := range thetas {
		res := results[p]
		fig.AddRow(strconv.Itoa(theta), res.Profit, float64(res.Schedule.NumAccepted()), res.Elapsed.Seconds())
	}
	return fig, nil
}

// AblationTau sweeps the BW Limiter's shrink rule τ: absolute steps and
// proportional fractions.
func AblationTau(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ablation-tau", Title: "Metis profit vs τ shrink rule (SUB-B4, K=400)", XLabel: "tau",
		Series: []string{"profit", "accepted"},
	}
	type rule struct {
		name string
		step int
		frac float64
	}
	rules := []rule{
		{name: "step=1", step: 1},
		{name: "step=2", step: 2},
		{name: "frac=0.25", step: 1, frac: 0.25},
		{name: "frac=0.5", step: 1, frac: 0.5},
	}
	results := make([]*core.Result, len(rules))
	err := forEachPoint(len(rules), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.SubB4(), ablationKSub)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		mc := cfg.metisConfig()
		mc.TauStep, mc.TauFrac = rules[p].step, rules[p].frac
		res, err := core.SolveCtx(ctx, inst, mc)
		if err != nil {
			return err
		}
		results[p] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, r := range rules {
		fig.AddRow(r.name, results[p].Profit, float64(results[p].Schedule.NumAccepted()))
	}
	return fig, nil
}

// AblationPaths sweeps the candidate path-set size k (Yen's k cheapest
// paths): routing flexibility against LP size.
func AblationPaths(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ablation-paths", Title: "Metis profit vs candidate paths per request (B4, K=200)", XLabel: "paths",
		Series: []string{"profit", "cost", "time_s"},
	}
	paths := []int{1, 2, 3, 5}
	results := make([]*core.Result, len(paths))
	err := forEachPoint(len(paths), cfg.Parallel, func(p int) error {
		sub := cfg
		sub.PathsPerRequest = paths[p]
		inst, err := buildInstance(sub, wan.B4(), ablationK)
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		res, err := core.SolveCtx(ctx, inst, cfg.metisConfig())
		if err != nil {
			return err
		}
		results[p] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range paths {
		fig.AddRow(strconv.Itoa(k), results[p].Profit, results[p].Cost, results[p].Elapsed.Seconds())
	}
	return fig, nil
}

// AblationRounding sweeps MAA's best-of-R randomized rounding: variance
// reduction against rounding time.
func AblationRounding(cfg Config) (*Figure, error) {
	fig := &Figure{
		ID: "ablation-rounding", Title: "MAA cost vs rounding repeats (B4, K=200)", XLabel: "rounds",
		Series: []string{"cost", "cost/LP"},
	}
	sweep := []int{1, 5, 20, 100}
	type row struct{ cost, ratio float64 }
	rows := make([]row, len(sweep))
	err := forEachPoint(len(sweep), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.B4(), ablationK)
		if err != nil {
			return err
		}
		// Each point re-seeds its own RNG (that is the experiment:
		// identical randomness, more rounds), so points are independent.
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		res, err := maa.Solve(inst, maa.Options{LP: lp.Options{Ctx: ctx}, Rounds: sweep[p], RNG: stats.NewRNG(cfg.Seed)})
		if err != nil {
			return err
		}
		rows[p] = row{cost: res.Cost, ratio: res.Cost / res.Relaxed.Cost}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, rounds := range sweep {
		fig.AddRow(strconv.Itoa(rounds), rows[p].cost, rows[p].ratio)
	}
	return fig, nil
}
