package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"metis/internal/chernoff"
	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/lp"
	"metis/internal/maa"
	"metis/internal/online"
	"metis/internal/sched"
	"metis/internal/serve"
	"metis/internal/spm"
	"metis/internal/stats"
	"metis/internal/taa"
	"metis/internal/wal"
)

// The layer probes time calls into each module's public functions on
// the first ≤1000 requests the workload offered: what a unit of the
// layer's work costs on this workload's inputs, beside how much of it
// the traced segment did. Metrics named *_k1000 are defined at that
// size; a workload that offers fewer (a -quick run) probes what it has.

func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}

// runProbes fills layer with every probe metric.
func runProbes(layer map[string]float64, in *probeInput, tmp string) error {
	if in == nil || len(in.reqs) < 2 {
		return fmt.Errorf("no input captured")
	}
	reqs, n := in.reqs, float64(len(in.reqs))
	var bySlot [slots][]demand.Request
	for _, r := range reqs {
		bySlot[r.Start] = append(bySlot[r.Start], r)
	}

	// sched
	var inst *sched.Instance
	d, err := timeIt(func() (err error) {
		inst, err = sched.NewInstance(in.net, slots, reqs, sched.DefaultPathsPerRequest)
		return err
	})
	if err != nil {
		return err
	}
	layer["sched.new_instance_us_per_req"] = us(d) / n
	half, err := sched.NewInstance(in.net, slots, reqs[:len(reqs)/2], sched.DefaultPathsPerRequest)
	if err != nil {
		return err
	}
	if d, err = timeIt(func() error {
		_, err := half.Extend(reqs[len(reqs)/2:], sched.DefaultPathsPerRequest)
		return err
	}); err != nil {
		return err
	}
	layer["sched.extend_us_per_req"] = us(d) / float64(len(reqs)-len(reqs)/2)

	// Capacities that bind: half of what routing everything on its first
	// path would need.
	first := sched.NewSchedule(inst)
	for i := 0; i < inst.NumRequests(); i++ {
		if err := first.Assign(i, 0); err != nil {
			return err
		}
	}
	caps := first.ChargedBandwidth()
	for e := range caps {
		caps[e] = (caps[e] + 1) / 2
	}
	all := allIndices(inst.NumRequests())

	// spm: model builds and cold relaxations
	var rl *spm.RLModel
	var bl *spm.BLModel
	var relRL *spm.RelaxedRL
	var relBL *spm.RelaxedBL
	for _, step := range []struct {
		metric string
		f      func() error
	}{
		{"spm.rl_model_build_ms_k1000", func() (err error) { rl, err = spm.NewRLModel(inst, lp.Options{}); return }},
		{"spm.rl_relax_ms_k1000", func() (err error) { relRL, err = rl.SolveSubset(all); return }},
		{"spm.bl_model_build_ms_k1000", func() (err error) { bl, err = spm.NewBLModel(inst, lp.Options{}); return }},
		{"spm.bl_relax_ms_k1000", func() (err error) { relBL, err = bl.SolveSubset(all, caps); return }},
	} {
		if d, err = timeIt(step.f); err != nil {
			return fmt.Errorf("%s: %w", step.metric, err)
		}
		layer[step.metric] = ms(d)
	}

	if err := probeLP(layer, inst, caps); err != nil {
		return fmt.Errorf("lp probe: %w", err)
	}

	// maa, taa, chernoff
	if d, err = timeIt(func() error {
		_, err := maa.Solve(inst, maa.Options{RNG: stats.NewRNG(policySeed)})
		return err
	}); err != nil {
		return err
	}
	layer["maa.solve_ms_k1000"] = ms(d)
	const roundings = 20
	rng := stats.NewRNG(policySeed)
	if d, err = timeIt(func() error {
		for i := 0; i < roundings; i++ {
			if _, err := maa.Round(inst, relRL, rng); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	layer["maa.round_us"] = us(d) / roundings
	if d, err = timeIt(func() error { _, err := taa.Solve(inst, caps, taa.Options{}); return err }); err != nil {
		return err
	}
	layer["taa.solve_ms_k1000"] = ms(d)
	if err := probeChernoff(layer, inst, caps, relBL); err != nil {
		return err
	}

	// core: the pipeline's own time at this size is the metis.solve span
	// minus the stage spans beneath it.
	tr := newMemTracer()
	if _, err := core.Solve(inst, core.Config{Theta: offlineTheta, Seed: policySeed, Tracer: tr}); err != nil {
		return err
	}
	sums := sumSpans(tr.link())
	if solve := sums["metis.solve"]; solve != nil {
		own := solve.Self
		if rounds := sums["metis.round"]; rounds != nil {
			own += rounds.Self
		}
		layer["core.self_ms_k1000"] = ms(own)
	}

	if err := probeIncremental(layer, in, bySlot[:]); err != nil {
		return fmt.Errorf("incremental probe: %w", err)
	}
	if err := probeServe(layer, in, inst, tmp); err != nil {
		return fmt.Errorf("serve probe: %w", err)
	}
	return probeWAL(layer, tmp)
}

// probeLP builds the BL-SPM path LP with the public Problem API, the
// way spm.BLSession does (capacity rows first, then per request an
// accept row and one column per candidate path), leaving the last
// tenth of the requests out. It times the cold solve, warm re-solves
// after capacity SetRHS changes, and the warm solve after appending the
// held-back columns.
func probeLP(layer map[string]float64, inst *sched.Instance, caps []int) error {
	p := lp.NewProblem(lp.Maximize)
	links := inst.Network().NumLinks()
	capRow := make([][]int, links)
	for e := range capRow {
		capRow[e] = make([]int, slots)
		for t := range capRow[e] {
			row, err := p.AddConstraint(lp.LE, float64(caps[e]), "")
			if err != nil {
				return err
			}
			capRow[e][t] = row
		}
	}
	appendReq := func(i int) error {
		r := inst.Request(i)
		accept, err := p.AddConstraint(lp.LE, 1, "")
		if err != nil {
			return err
		}
		for j := 0; j < inst.NumPaths(i); j++ {
			load := map[int]float64{accept: 1}
			for _, e := range inst.Path(i, j).Links {
				for t := r.Start; t <= r.End; t++ {
					load[capRow[e][t]] += r.Rate
				}
			}
			rows := make([]int, 0, len(load))
			for row := range load {
				rows = append(rows, row)
			}
			sort.Ints(rows)
			vals := make([]float64, len(rows))
			for k, row := range rows {
				vals[k] = load[row]
			}
			if _, err := p.AppendColumn(r.Value, 0, 1, rows, vals, ""); err != nil {
				return err
			}
		}
		return nil
	}
	held := inst.NumRequests() / 10
	base := inst.NumRequests() - held
	for i := 0; i < base; i++ {
		if err := appendReq(i); err != nil {
			return err
		}
	}
	solve := func(opts lp.Options) (time.Duration, error) {
		return timeIt(func() error {
			sol, err := p.Solve(opts)
			if err == nil && sol.Status != lp.StatusOptimal {
				err = fmt.Errorf("status %v", sol.Status)
			}
			return err
		})
	}
	d, err := solve(lp.Options{})
	if err != nil {
		return err
	}
	layer["lp.cold_solve_ms_k1000"] = ms(d)

	basis := lp.NewBasis()
	if _, err := solve(lp.Options{Warm: basis}); err != nil {
		return err
	}
	var warm samples
	for e := 0; e < links; e++ {
		for t := 0; t < slots; t++ {
			if err := p.SetRHS(capRow[e][t], float64(caps[e]+1)); err != nil {
				return err
			}
		}
		if d, err = solve(lp.Options{Warm: basis}); err != nil {
			return err
		}
		warm.add(d)
	}
	layer["lp.warm_resolve_ms"] = warm.sorted().quantile(0.5)
	for i := base; i < inst.NumRequests(); i++ {
		if err := appendReq(i); err != nil {
			return err
		}
	}
	if d, err = solve(lp.Options{Warm: basis}); err != nil {
		return err
	}
	layer["lp.append_resolve_ms"] = ms(d)
	return nil
}

// probeChernoff times the estimator TAA walks: its construction from a
// relaxation, and one Decide per request.
func probeChernoff(layer map[string]float64, inst *sched.Instance, caps []int, rel *spm.RelaxedBL) error {
	minCap := 0
	for _, c := range caps {
		if c > 0 && (minCap == 0 || c < minCap) {
			minCap = c
		}
	}
	mu, err := chernoff.SelectMu(float64(minCap)/demand.MaxRate(inst.Requests()), slots, inst.Network().NumLinks())
	if err != nil {
		// Capacities too small for inequality (6): TAA itself skips the
		// estimator here, so there is nothing to time.
		return nil
	}
	var est *chernoff.Estimator
	d, err := timeIt(func() (err error) {
		est, err = chernoff.NewEstimator(inst, spm.ExpandCaps(inst, caps), rel.X, mu)
		return err
	})
	if err != nil {
		return err
	}
	layer["chernoff.estimator_build_ms_k1000"] = ms(d)
	d, _ = timeIt(func() error {
		for i := 0; i < inst.NumRequests(); i++ {
			est.Decide(i, chernoff.Decline)
		}
		return nil
	})
	layer["chernoff.decide_us"] = us(d) / float64(inst.NumRequests())
	return nil
}

// probeIncremental replays the captured requests slot by slot through
// the pieces of an incremental replan: Replanner.Observe, a BLSession
// grown by Extend and re-solved warm, and the two admission passes.
func probeIncremental(layer map[string]float64, in *probeInput, bySlot [][]demand.Request) error {
	rp := core.NewReplanner(in.net, slots, 0, core.Config{Seed: policySeed}, core.ReplanIncremental)
	var observe, extend time.Duration
	var sessSolve samples
	var sess *spm.BLSession
	var inst *sched.Instance
	var plan []int
	seen, batches := 0, 0
	for s, batch := range bySlot {
		if len(batch) == 0 {
			continue
		}
		d, err := timeIt(func() error { return rp.Observe(batch) })
		if err != nil {
			return err
		}
		observe += d
		if batches++; batches%replanEvery == 1 {
			res, err := rp.Replan(context.Background())
			if err != nil {
				return err
			}
			plan = append(plan[:0], res.Charged...)
		}
		// The same growth on a bare session, to separate spm from core.
		if inst == nil {
			if inst, err = sched.NewInstance(in.net, slots, batch, sched.DefaultPathsPerRequest); err != nil {
				return err
			}
			if sess, err = spm.NewBLSession(inst, lp.Options{}); err != nil {
				return err
			}
		} else {
			if inst, err = inst.Extend(batch, sched.DefaultPathsPerRequest); err != nil {
				return err
			}
			if d, err = timeIt(func() error { return sess.Extend(inst) }); err != nil {
				return err
			}
			extend += d
			seen += len(batch)
		}
		caps := make([]int, in.net.NumLinks())
		for e := range caps {
			caps[e] = 1 + s
		}
		if d, err = timeIt(func() error {
			_, err := sess.SolveSubset(allIndices(inst.NumRequests()), caps)
			return err
		}); err != nil {
			return err
		}
		sessSolve.add(d)
	}
	layer["core.observe_us_per_req"] = us(observe) / float64(len(in.reqs))
	layer["spm.session_extend_us_per_req"] = ratio(us(extend), float64(seen))
	layer["spm.session_solve_ms_p50"] = sessSolve.sorted().quantile(0.5)

	// Admission over the whole captured set against the last plan: guided
	// by the replanner's relaxation, and greedy.
	n := float64(inst.NumRequests())
	st := online.NewState(context.Background(), inst)
	guide := rp.RelaxedGuide(0)
	if len(guide) != inst.NumRequests() {
		guide = make([][]float64, inst.NumRequests())
	}
	d, err := timeIt(func() error {
		return online.ProvisionedTAA{Plan: plan, Guide: guide}.DecideBatch(st, 0, allIndices(inst.NumRequests()))
	})
	if err != nil {
		return err
	}
	layer["online.guided_us_per_req"] = us(d) / n
	st = online.NewState(context.Background(), inst)
	if d, err = timeIt(func() error {
		return online.Greedy{}.DecideBatch(st, 0, allIndices(inst.NumRequests()))
	}); err != nil {
		return err
	}
	layer["online.greedy_us_per_req"] = us(d) / n
	return nil
}

// probeServe drives a scratch greedy server with the captured requests
// twice, once through SubmitAll and once through loopback HTTP (the
// difference is JSON decode plus HTTP), then times the pieces of a
// tick and of recovery on what that left behind.
func probeServe(layer map[string]float64, in *probeInput, inst *sched.Instance, tmp string) error {
	r, err := newRig(tmp, rigConfig{
		net: in.net, policy: serve.GreedyPolicy{}, epoch: time.Hour, tickBudget: 0.95,
		queueLimit: queueLimit, listen: true,
	})
	if err != nil {
		return err
	}
	defer r.close()
	ctx := context.Background()
	n := float64(len(in.reqs))
	batches := chunk(in.reqs, postBatchN)
	d, _ := timeIt(func() error {
		for _, b := range batches {
			r.srv.SubmitAll(b)
		}
		return nil
	})
	layer["serve.submit_all_us_per_req"] = us(d) / n
	r.srv.Tick(ctx)
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		if bodies[i], err = json.Marshal(b); err != nil {
			return err
		}
	}
	if d, err = timeIt(func() error {
		for _, body := range bodies {
			if _, err := postBatch(r.client, r.url, body); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	layer["serve.post_us_per_req"] = us(d) / n
	r.srv.Tick(ctx)

	const copies = 50
	d, _ = timeIt(func() error {
		for i := 0; i < copies; i++ {
			r.srv.LedgerCopy()
		}
		return nil
	})
	layer["serve.ledger_copy_us"] = us(d) / copies
	var snap bytes.Buffer
	if d, err = timeIt(func() error { return r.srv.Snapshot(&snap) }); err != nil {
		return err
	}
	layer["serve.snapshot_ms"] = ms(d)
	layer["serve.snapshot_kb"] = float64(snap.Len()) / 1024

	entries := make([]serve.CommitEntry, inst.NumRequests())
	for i := range entries {
		entries[i] = serve.CommitEntry{Req: inst.Request(i), Links: inst.Path(i, 0).Links}
	}
	led := serve.NewLedger(in.net, slots)
	d, _ = timeIt(func() error { led.CommitBatch(entries, 2); return nil })
	layer["serve.commit_batch_us_per_entry"] = us(d) / n

	// Recovery on a copy of the log those two rounds wrote.
	if err := r.log.Sync(); err != nil {
		return err
	}
	dir, err := copyDir(tmp, r.dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bytesOnDisk := float64(dirSize(dir))
	if d, err = timeIt(func() error {
		_, err := wal.Replay(dir, wal.Offset{}, func(wal.Offset, byte, []byte) error { return nil })
		return err
	}); err != nil {
		return err
	}
	layer["wal.replay_mb_per_s"] = ratio(bytesOnDisk/1e6, d.Seconds())
	var log *wal.Log
	if d, err = timeIt(func() (err error) { log, err = wal.Open(dir, wal.Options{}); return }); err != nil {
		return err
	}
	defer log.Close()
	layer["wal.open_ms"] = ms(d)
	srv, err := serve.New(serve.Config{Net: in.net, Slots: slots, Epoch: time.Hour, Policy: serve.GreedyPolicy{}, WAL: log})
	if err != nil {
		return err
	}
	var rst serve.RecoverStats
	if d, err = timeIt(func() (err error) { rst, err = srv.RecoverWAL(); return }); err != nil {
		return err
	}
	layer["serve.recover_us_per_record"] = ratio(us(d), float64(rst.Arrivals+rst.Ticks))
	return nil
}

// probeWAL times the log alone: buffered appends of a typical arrival
// record, and append-then-wait, the un-amortised durable write a
// single ack pays.
func probeWAL(layer map[string]float64, tmp string) error {
	dir, err := os.MkdirTemp(tmp, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	body := bytes.Repeat([]byte("x"), 120) // about one JSON arrival record
	const appends, syncs = 5000, 100
	d, err := timeIt(func() error {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(1, body); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	layer["wal.append_us"] = us(d) / appends
	var fsync samples
	for i := 0; i < syncs; i++ {
		d, err := timeIt(func() error {
			off, err := log.Append(1, body)
			if err != nil {
				return err
			}
			return log.WaitDurable(off)
		})
		if err != nil {
			return err
		}
		fsync.add(d)
	}
	layer["wal.fsync_ms_p50"] = fsync.sorted().quantile(0.5)
	return nil
}
