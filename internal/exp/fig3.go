package exp

import (
	"strconv"

	"metis/internal/core"
	"metis/internal/opt"
	"metis/internal/wan"
)

// Fig3 regenerates Fig. 3a–3c: Metis against OPT(SPM) and OPT(RL-SPM)
// on SUB-B4. Returned figures:
//
//   - fig3a: service profit (plus solver wall times in seconds),
//   - fig3b: number of accepted requests,
//   - fig3c: link utilization (max/avg/min per solution, measured
//     against each solution's own purchased bandwidth).
//
// OPT columns are anytime incumbents under the cfg.OptNodes budget;
// OPT(SPM) is warm-started with the Metis schedule so the reference line
// dominates Metis by construction (Gurobi-style warm start).
func Fig3(cfg Config) ([]*Figure, error) {
	profit := &Figure{
		ID: "fig3a", Title: "Service profit vs request count (SUB-B4)", XLabel: "K",
		Series: []string{"OPT(SPM)", "Metis", "OPT(RL-SPM)", "tOPT_s", "tMetis_s"},
	}
	accepted := &Figure{
		ID: "fig3b", Title: "Accepted requests vs request count (SUB-B4)", XLabel: "K",
		Series: []string{"OPT(SPM)", "Metis", "OPT(RL-SPM)"},
	}
	util := &Figure{
		ID: "fig3c", Title: "Link utilization (SUB-B4)", XLabel: "K",
		Series: []string{
			"OPT(SPM)max", "OPT(SPM)avg", "OPT(SPM)min",
			"Metis max", "Metis avg", "Metis min",
			"OPT(RL)max", "OPT(RL)avg", "OPT(RL)min",
		},
	}

	type row struct {
		metis         *core.Result
		optSPM, optRL *opt.Result
	}
	rows := make([]row, len(cfg.Fig3Ks))
	err := forEachPoint(len(cfg.Fig3Ks), cfg.Parallel, func(p int) error {
		inst, err := buildInstance(cfg, wan.SubB4(), cfg.Fig3Ks[p])
		if err != nil {
			return err
		}
		ctx, cancel := cfg.pointCtx()
		defer cancel()
		metis, err := core.SolveCtx(ctx, inst, cfg.metisConfig())
		if err != nil {
			return err
		}
		optSPM, err := opt.SPM(ctx, inst, cfg.OptNodes, metis.Schedule)
		if err != nil {
			return err
		}
		optRL, err := opt.RLSPM(ctx, inst, cfg.OptNodes)
		if err != nil {
			return err
		}
		rows[p] = row{metis: metis, optSPM: optSPM, optRL: optRL}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, k := range cfg.Fig3Ks {
		x := strconv.Itoa(k)
		metis, optSPM, optRL := rows[p].metis, rows[p].optSPM, rows[p].optRL
		cfg.Stats.AddExact("fig3", x, "OPT(SPM)", optSPM)
		cfg.Stats.AddExact("fig3", x, "OPT(RL-SPM)", optRL)
		cfg.Stats.AddMetis("fig3", x, metis.Rounds)
		profit.AddRow(x, optSPM.Profit, metis.Profit, optRL.Profit,
			optSPM.Elapsed.Seconds()+optRL.Elapsed.Seconds(), metis.Elapsed.Seconds())
		accepted.AddRow(x, float64(optSPM.Accepted), float64(metis.Schedule.NumAccepted()), float64(optRL.Accepted))

		us := optSPM.Schedule.ChargedUtilization()
		um := metis.Schedule.ChargedUtilization()
		ur := optRL.Schedule.ChargedUtilization()
		util.AddRow(x, us.Max, us.Avg, us.Min, um.Max, um.Avg, um.Min, ur.Max, ur.Avg, ur.Min)
	}
	return []*Figure{profit, accepted, util}, nil
}
