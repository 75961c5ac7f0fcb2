package main

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"metis/internal/demand"
	"metis/internal/serve"
	"metis/internal/wal"
	"metis/internal/wan"
)

const (
	queueLimit  = 8192
	postBatchN  = 200                    // requests per POST on the closed-loop flood
	sloMillis   = 300.0                  // decision-latency limit of the paced runs
	pacedEpoch  = 100 * time.Millisecond // tick interval of the paced runs
	postEvery   = 20 * time.Millisecond  // the paced generator POSTs this often
	singlesGen  = 999                    // cycle index that seeds the single-POST phase
	replanEvery = 2                      // metisd's documented sustained-load setting
)

// serveBase is what the serve workloads share: the SUB-B4 rig and the
// reading of a finished run off the server.
type serveBase struct {
	p   params
	tr  *memTracer
	rig *rig
}

func (b *serveBase) teardown() {
	if b.rig != nil {
		b.rig.close()
		b.rig = nil
	}
}

// checkDecided fails o for every id still queued (or unknown) after
// the tick that had to decide it.
func checkDecided(o *outcome, srv *serve.Server, ids []int64) {
	for _, id := range ids {
		if d := srv.Decision(id); d == nil || d.Status == serve.StatusQueued {
			o.failed++
			if len(o.problems) < 8 {
				o.fail("request %d not decided by the tick after its submit", id)
			}
		}
	}
}

// tally folds one batch-submit reply into o, appends the queued ids
// and returns them with the number of shed replies.
func tally(o *outcome, res []serve.BatchResult, ids []int64) ([]int64, int) {
	shed := 0
	for _, r := range res {
		switch r.Status {
		case serve.StatusQueued:
			ids = append(ids, r.ID)
		case "shed":
			shed++
		default:
			o.failed++
			if len(o.problems) < 8 {
				o.fail("submit answered %q: %s", r.Status, r.Error)
			}
		}
	}
	return ids, shed
}

// finish reads the server's own accounting after a run and checks it
// against what the driver saw.
func (b *serveBase) finish(o *outcome, queued, shed int) {
	srv := b.rig.srv
	st := srv.Stats()
	recs := srv.EpochRecords()
	var tickMs samples
	var busy float64
	var replans, degraded int64
	for _, r := range recs {
		o.profit += r.ProfitDelta
		tickMs = append(tickMs, r.ElapsedMillis)
		busy += r.ElapsedMillis
		replans += r.Replans
		degraded += r.ReplansDegraded
	}
	if tp, ok := b.rig.policy.(*tracedMetis); ok {
		replans, degraded = int64(tp.replans), int64(tp.replansDegraded)
	}
	o.decided = int(st.Accepted + st.Rejected)
	if o.decided != queued {
		o.fail("server decided %d requests, driver saw %d queued: not each exactly once", o.decided, queued)
	}
	if st.CheckFailures != 0 {
		o.fail("%d ledger invariant failures: %s", st.CheckFailures, st.LastCheckError)
	}
	if st.QueueDepth != 0 {
		o.fail("%d requests still queued at the end of the run", st.QueueDepth)
	}
	if int(st.Shed) != shed {
		o.fail("server shed %d, driver saw %d shed replies", st.Shed, shed)
	}
	segs, _ := wal.ListSegments(b.rig.dir)
	sorted := tickMs.sorted()
	o.info["accepted_frac"] = metric{ratio(float64(st.Accepted), float64(o.offered)), "ratio"}
	o.info["shed_frac"] = metric{ratio(float64(shed), float64(o.offered)), "ratio"}
	o.info["wal_disk_mb"] = metric{float64(dirSize(b.rig.dir)) / 1e6, "MB"}
	o.layer["serve.tick_ms_p50"] = sorted.quantile(0.5)
	o.layer["serve.tick_ms_p90"] = sorted.quantile(0.9)
	o.layer["serve.tick_ms_max"] = sorted.quantile(1)
	o.layer["serve.tick_busy_frac"] = ratio(busy, ms(o.wall))
	o.layer["serve.queue_wait_ms_p50"] = st.Latency["queueWait"].P50Millis
	o.layer["serve.degraded_epochs"] = float64(st.DegradedEpochs)
	o.layer["serve.overruns"] = float64(st.Overruns)
	o.layer["serve.shed"] = float64(st.Shed)
	o.layer["serve.check_failures"] = float64(st.CheckFailures)
	o.layer["serve.replans"] = float64(replans)
	o.layer["serve.replans_completed_frac"] = ratio(float64(replans-degraded), float64(replans))
	o.layer["wal.segments"] = float64(len(segs))
}

// syncLoad is the closed-loop synchronous driver: per slot it submits
// that slot's arrivals, then ticks. The epoch is an hour, so no tick
// or replan budget ever binds and decisions are deterministic for a
// seed. Set-up generates (and for HTTP encodes) every cycle of the
// pass, so a timed step holds only the program's work.
type syncLoad struct {
	serveBase
	policy  string
	k       int  // requests per cycle
	http    bool // POST batches of postBatchN over loopback instead of SubmitAll
	singles int  // phase B: this many single-request POSTs from two connections

	cycles     []*cycle
	bodies     [][slots][][]byte // per cycle and slot, the encoded batches (http)
	singleReqs [][]byte          // phase B bodies
}

func (w *syncLoad) setup(tr *memTracer) error {
	w.tr = tr
	net := wan.SubB4()
	for c := 0; c < w.p.units; c++ {
		cy, err := genCycle(net, w.p.seed, c, w.k)
		if err != nil {
			return err
		}
		w.cycles = append(w.cycles, cy)
		if !w.http {
			continue
		}
		var bodies [slots][][]byte
		for s := range cy.bySlot {
			for _, b := range chunk(cy.bySlot[s], postBatchN) {
				body, err := json.Marshal(b)
				if err != nil {
					return err
				}
				bodies[s] = append(bodies[s], body)
			}
		}
		w.bodies = append(w.bodies, bodies)
	}
	if w.singles > 0 {
		cy, err := genCycle(net, w.p.seed, singlesGen, w.singles)
		if err != nil {
			return err
		}
		for _, r := range cy.all() {
			body, err := json.Marshal(r)
			if err != nil {
				return err
			}
			w.singleReqs = append(w.singleReqs, body)
		}
	}
	pol, err := newPolicy(w.policy, replanEvery, tr)
	if err != nil {
		return err
	}
	w.rig, err = newRig(w.p.tmp, rigConfig{
		net: net, policy: pol, epoch: time.Hour, tickBudget: 0.95,
		queueLimit: queueLimit, listen: w.http, tracer: tr.asObs(),
	})
	return err
}

func (w *syncLoad) run() (*outcome, error) {
	o := newOutcome()
	srv := w.rig.srv
	ctx := context.Background()
	o.probe = capture(wan.SubB4(), w.cycles[0].all())
	var ack samples
	var ids []int64
	var period time.Duration
	queued := 0
	for c, cy := range w.cycles {
		for s := 0; s < slots; s++ {
			ids = ids[:0]
			t0 := time.Now()
			if w.http {
				for _, body := range w.bodies[c][s] {
					end := w.tr.begin(trackClient, "client.post_batch")
					tb := time.Now()
					res, err := postBatch(w.rig.client, w.rig.url, body)
					ack.add(time.Since(tb))
					end()
					if err != nil {
						return nil, err
					}
					ids, _ = tally(o, res, ids)
				}
			} else {
				end := w.tr.begin(trackClient, "client.submit_all")
				res := srv.SubmitAll(cy.bySlot[s])
				end()
				ids, _ = tally(o, res, ids)
			}
			srv.Tick(ctx)
			step := time.Since(t0)
			o.step(step)
			// Every replanEvery-th tick replans, so single steps fall in two
			// populations with the median on their boundary; one sample is
			// one replan period.
			if period += step; !w.http && (s+1)%replanEvery == 0 {
				o.lat.add(period)
				period = 0
			}
			checkDecided(o, srv, ids)
			queued += len(ids)
		}
		o.offered += cy.n
		var sum cycleSum
		recs := srv.EpochRecords()
		for _, r := range recs[len(recs)-slots:] {
			sum.Profit += r.ProfitDelta
			sum.Accepted += r.Accepted
			sum.Decided += r.Batch
		}
		o.cycles = append(o.cycles, sum)
	}
	if w.http {
		o.lat = ack
		a := ack.sorted()
		o.layer["serve.post_batch_ms_p50"] = a.quantile(0.5)
		o.layer["serve.post_batch_ms_p99"] = a.quantile(0.99)
		o.info["ack_p50_ms"] = metric{a.quantile(0.5), "ms"}
	}
	if w.singles > 0 {
		n, err := w.singlePhase(o)
		if err != nil {
			return nil, err
		}
		queued += n
	}
	o.attempted = o.offered
	w.finish(o, queued, 0)
	return o, nil
}

// singlePhase is phase B of the flood: single-request POSTs from two
// connections, each ack waiting for its own fsync (two in flight can
// share one), then the tick that decides them. It uses the WAL the
// opposite way to phase A, so a batching gain that costs single-ack
// latency shows in the same workload.
func (w *syncLoad) singlePhase(o *outcome) (int, error) {
	bodies := w.singleReqs
	const conns = 2
	var (
		mu     sync.Mutex
		single samples
		ids    []int64
		first  error
		wg     sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for i := c; i < len(bodies); i += conns {
				end := w.tr.begin(trackClient, "client.post_single")
				tb := time.Now()
				id, err := postSingle(client, w.rig.url, bodies[i])
				lat := time.Since(tb)
				end()
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				single.add(lat)
				ids = append(ids, id)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if first != nil {
		return 0, first
	}
	w.rig.srv.Tick(context.Background())
	o.step(time.Since(t0))
	checkDecided(o, w.rig.srv, ids)
	o.offered += len(bodies)
	d := single.digest()
	o.info["single_ack_p50_ms"] = metric{d.P50, "ms"}
	o.info["single_ack_tail_ms"] = metric{d.Tail, "ms"}
	return len(ids), nil
}

// paced is the open-loop driver on the real clock: Server.Run ticks
// every pacedEpoch, and one connection POSTs a batch every postEvery.
// The requests with Start = s go out during the interval that ends
// with the tick deciding slot s, so their windows are intact when they
// are decided. Each request is timed from the moment its batch was due
// to the first poll of Server.Epoch (1 ms) that shows its tick
// committed.
type paced struct {
	serveBase
	rate     int // offered requests per second
	maxBatch int
	posts    []pacedPost
	cycles   int
	first    []demand.Request // the first cycle, for the layer probes
}

// pacedPost is one scheduled POST.
type pacedPost struct {
	due  time.Duration // since the tick loop started
	body []byte
	n    int
}

func newPaced(p params, rate, maxBatch int) *paced {
	return &paced{serveBase: serveBase{p: p}, rate: rate, maxBatch: maxBatch}
}

// pacedCycles is how many whole cycles fit in d.
func pacedCycles(d time.Duration) int {
	if n := int(d / (slots * pacedEpoch)); n > 1 {
		return n
	}
	return 1
}

// schedulePosts lays one cycle's arrivals on the clock: slot s of cycle
// c belongs to tick interval n = c·slots+s, which starts n epochs after
// the loop does, and its requests leave in equal parts at every
// postEvery from the start of the interval, the last part one postEvery
// before the tick.
func schedulePosts(cy *cycle, c int) ([]pacedPost, error) {
	perInterval := int(pacedEpoch / postEvery)
	var out []pacedPost
	for s := 0; s < slots; s++ {
		reqs := cy.bySlot[s]
		start := time.Duration(c*slots+s) * pacedEpoch
		for j := 0; j < perInterval && len(reqs) > 0; j++ {
			n := (len(reqs) + perInterval - j - 1) / (perInterval - j)
			body, err := json.Marshal(reqs[:n])
			if err != nil {
				return nil, err
			}
			out = append(out, pacedPost{due: start + time.Duration(j)*postEvery, body: body, n: n})
			reqs = reqs[n:]
		}
	}
	return out, nil
}

func (w *paced) setup(tr *memTracer) error {
	w.tr = tr
	net := wan.SubB4()
	w.cycles = pacedCycles(w.p.window)
	perCycle := w.rate * slots * int(pacedEpoch/time.Millisecond) / 1000
	if w.p.quick {
		perCycle /= 4
	}
	w.posts = w.posts[:0]
	for c := 0; c < w.cycles; c++ {
		cy, err := genCycle(net, w.p.seed, c, perCycle)
		if err != nil {
			return err
		}
		if c == 0 {
			w.first = cy.all()
		}
		posts, err := schedulePosts(cy, c)
		if err != nil {
			return err
		}
		w.posts = append(w.posts, posts...)
	}
	pol, err := newPolicy("metis-incremental", replanEvery, tr)
	if err != nil {
		return err
	}
	w.rig, err = newRig(w.p.tmp, rigConfig{
		net: net, policy: pol, epoch: pacedEpoch, tickBudget: 0.95,
		queueLimit: queueLimit, maxBatch: w.maxBatch, listen: true, tracer: tr.asObs(),
	})
	return err
}

// epochClock polls Server.Epoch and remembers when each tick was first
// seen committed.
type epochClock struct {
	mu   sync.Mutex
	seen []time.Time // seen[e]: first poll that found Epoch() > e
}

func (c *epochClock) poll(srv *serve.Server) {
	e := srv.Epoch()
	now := time.Now()
	c.mu.Lock()
	for len(c.seen) < e {
		c.seen = append(c.seen, now)
	}
	c.mu.Unlock()
}

func (w *paced) run() (*outcome, error) {
	o := newOutcome()
	srv := w.rig.srv
	horizon := time.Duration(w.cycles*slots) * pacedEpoch
	posts := w.posts
	o.probe = capture(wan.SubB4(), w.first)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	t0 := time.Now()
	go func() { runErr <- srv.Run(ctx) }()

	clock := &epochClock{}
	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-t.C:
				clock.poll(srv)
			}
		}
	}()

	type sent struct {
		id  int64
		due time.Time
	}
	var (
		queued            []sent
		ids               []int64
		ack               samples
		shed, late        int
		lateMax           time.Duration
		transportFailures int
	)
	for _, p := range posts {
		due := t0.Add(p.due)
		time.Sleep(time.Until(due))
		l := time.Since(due)
		if l > lateMax {
			lateMax = l
		}
		if l > postEvery/2 {
			late++
		}
		end := w.tr.begin(trackClient, "client.post_batch")
		res, err := postBatch(w.rig.client, w.rig.url, p.body)
		end()
		ack.add(time.Since(due))
		o.offered += p.n
		if err != nil {
			transportFailures += p.n
			o.fail("POST due at %v: %v", p.due, err)
			continue
		}
		var s int
		ids, s = tally(o, res, ids[:0])
		shed += s
		for _, id := range ids {
			queued = append(queued, sent{id, due})
		}
	}
	// Let the tick that decides the last slot fire, then stop: Run
	// drains whatever is still queued before it returns.
	time.Sleep(time.Until(t0.Add(horizon + pacedEpoch/2)))
	cancel()
	if err := <-runErr; err != nil {
		return nil, err
	}
	o.wall = time.Since(t0)
	clock.poll(srv)
	close(stopPoll)
	pollWG.Wait()

	slow := 0
	for _, q := range queued {
		dec := srv.Decision(q.id)
		if dec == nil || dec.Status == serve.StatusQueued || dec.Epoch >= len(clock.seen) {
			o.failed++
			continue
		}
		lat := clock.seen[dec.Epoch].Sub(q.due)
		o.lat.add(lat)
		if ms(lat) > sloMillis {
			slow++
		}
	}
	if o.failed > 0 {
		o.fail("%d requests undecided or invalid at drain", o.failed)
	}
	o.failed += transportFailures
	o.attempted = o.offered
	a := ack.sorted()
	o.info["ack_p50_ms"] = metric{a.quantile(0.5), "ms"}
	o.info["slo_miss_frac"] = metric{ratio(float64(shed+slow+o.failed), float64(o.offered)), "ratio"}
	o.layer["serve.post_batch_ms_p50"] = a.quantile(0.5)
	o.layer["serve.post_batch_ms_p99"] = a.quantile(0.99)
	o.layer["loadgen.late_ms_max"] = ms(lateMax)
	o.layer["loadgen.late_frac"] = ratio(float64(late), float64(len(posts)))
	w.finish(o, len(queued), shed)
	o.busy = time.Duration(o.layer["serve.tick_busy_frac"] * float64(o.wall))
	return o, nil
}
