package main

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric of BENCHMARK.json. TestSpecMatchesTables
// keeps the file and these tables equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics, measured with tracing off. Every
// workload reports every one, so each is defined in terms of what the
// workload offers, decides and answers; the workload-specific figures
// of the issue (ack_p50_ms, solve_k1000_ms, failover_ready_ms, …) are
// printed beside them as ungated info metrics.
//
// A bound is per metric, so it covers the metric's noisiest workload:
// at least twice the widest inter-quartile spread seen over ten seeds
// (README, "Calibration and bounds"), capped by the 25% the driver
// allows. The timings carry the cap: on the reference host a
// memory-bound run drifts by 10–20% over minutes. So do profit (its
// spread is over seeds, up to 11%) and peak RSS (GC timing, up to 14%).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"decisions_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"profit_per_kreq", "value", "higher", 0.25},
	{"alloc_kb_per_decision", "kB", "lower", 0.2},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer are the metrics of single layers, reported by the traced
// run: figures read in place during the traced segment (spans, obs
// counter deltas, the server's scorecard) and layer probes run on the
// first ≤1000 requests the workload offered. A layer a workload does
// not exercise reads 0 there, which is the prediction for it.
var perLayer = []metricDef{
	// serve: intake
	{"serve.post_batch_ms_p50", "ms", "lower", 0},
	{"serve.post_batch_ms_p99", "ms", "lower", 0},
	{"serve.submit_all_us_per_req", "us", "lower", 0},
	{"serve.post_us_per_req", "us", "lower", 0},
	{"serve.queue_wait_ms_p50", "ms", "lower", 0},
	// serve: tick
	{"serve.tick_ms_p50", "ms", "lower", 0},
	{"serve.tick_ms_p90", "ms", "lower", 0},
	{"serve.tick_ms_max", "ms", "lower", 0},
	{"serve.tick_busy_frac", "ratio", "lower", 0},
	{"serve.tick_self_ms_p50", "ms", "lower", 0},
	{"serve.tick_pre_ms_p50", "ms", "lower", 0},
	{"serve.tick_post_ms_p50", "ms", "lower", 0},
	{"serve.ledger_copy_us", "us", "lower", 0},
	{"serve.commit_batch_us_per_entry", "us", "lower", 0},
	// serve: health
	{"serve.replans", "count", "higher", 0},
	{"serve.replans_completed_frac", "ratio", "higher", 0},
	{"serve.degraded_epochs", "count", "lower", 0},
	{"serve.overruns", "count", "lower", 0},
	{"serve.shed", "count", "lower", 0},
	{"serve.invalid", "count", "lower", 0},
	{"serve.check_failures", "count", "lower", 0},
	// serve: recovery
	{"serve.snapshot_ms", "ms", "lower", 0},
	{"serve.snapshot_kb", "kB", "lower", 0},
	{"serve.recover_us_per_record", "us", "lower", 0},
	// wal
	{"wal.append_us", "us", "lower", 0},
	{"wal.fsync_ms_p50", "ms", "lower", 0},
	{"wal.records_per_fsync", "count", "higher", 0},
	{"wal.bytes_per_decision", "B", "lower", 0},
	{"wal.segments", "count", "lower", 0},
	{"wal.open_ms", "ms", "lower", 0},
	{"wal.replay_mb_per_s", "MB/s", "higher", 0},
	// ha
	{"ha.fetch_mb_per_s", "MB/s", "higher", 0},
	{"ha.lag_bytes_at_kill", "B", "lower", 0},
	{"ha.promote_ms", "ms", "lower", 0},
	{"ha.first_tick_ms", "ms", "lower", 0},
	// sched, online
	{"sched.new_instance_us_per_req", "us", "lower", 0},
	{"sched.extend_us_per_req", "us", "lower", 0},
	{"online.guided_us_per_req", "us", "lower", 0},
	{"online.greedy_us_per_req", "us", "lower", 0},
	// core
	{"core.observe_us_per_req", "us", "lower", 0},
	{"core.replan_ms_p50", "ms", "lower", 0},
	{"core.replan_ms_max", "ms", "lower", 0},
	{"core.replan_share", "ratio", "lower", 0},
	{"core.rounds_per_solve", "count", "lower", 0},
	{"core.self_ms_k1000", "ms", "lower", 0},
	// spm
	{"spm.session_extend_us_per_req", "us", "lower", 0},
	{"spm.session_solve_ms_p50", "ms", "lower", 0},
	{"spm.session_cold_resolves", "count", "lower", 0},
	{"spm.rl_model_build_ms_k1000", "ms", "lower", 0},
	{"spm.bl_model_build_ms_k1000", "ms", "lower", 0},
	{"spm.rl_relax_ms_k1000", "ms", "lower", 0},
	{"spm.bl_relax_ms_k1000", "ms", "lower", 0},
	// lp
	{"lp.cold_solve_ms_k1000", "ms", "lower", 0},
	{"lp.warm_resolve_ms", "ms", "lower", 0},
	{"lp.append_resolve_ms", "ms", "lower", 0},
	{"lp.iters_per_solve", "count", "lower", 0},
	{"lp.us_per_iter", "us", "lower", 0},
	{"lp.lu_factors_per_solve", "count", "lower", 0},
	{"lp.lu_updates_per_factor", "count", "higher", 0},
	{"lp.lu_fill_nnz_per_factor", "count", "lower", 0},
	{"lp.pricing_scanned_per_iter", "count", "lower", 0},
	{"lp.warm_hit_frac", "ratio", "higher", 0},
	{"lp.cold_fallbacks", "count", "lower", 0},
	{"lp.solve_share", "ratio", "lower", 0},
	// maa, taa, chernoff
	{"maa.solve_ms_k1000", "ms", "lower", 0},
	{"maa.round_us", "us", "lower", 0},
	{"taa.solve_ms_k1000", "ms", "lower", 0},
	{"taa.walk_steps_per_solve", "count", "lower", 0},
	{"chernoff.estimator_build_ms_k1000", "ms", "lower", 0},
	{"chernoff.decide_us", "us", "lower", 0},
	// harness
	{"loadgen.late_ms_max", "ms", "lower", 0},
	{"loadgen.late_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
	{"trace.tick_attributed_frac", "ratio", "higher", 0},
}
