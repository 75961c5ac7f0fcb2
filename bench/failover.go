package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"time"

	"metis/internal/demand"
	"metis/internal/ha"
	"metis/internal/serve"
	"metis/internal/wal"
	"metis/internal/wan"
)

// failover measures the two ways back to a serving daemon after the
// leader stops mid-cycle: promoting the standby that mirrored it, and
// restarting cold from the leader's own log.
//
// Set-up (in setup_s): a leader with a WAL and a standby mirroring it
// over loopback (ha defaults, one FetchOnce after every leader tick)
// run killAfter slot steps under metis-incremental, then the leader is
// closed: five cycles of 600 requests and two slots of a sixth, so
// that the log to restore and replay, which is the same size for every
// seed, and not one instance's LP rebuild, is most of a recovery. Each
// timed repetition works on fresh copies of the two directories: (a)
// Promote, submit the next slot, first tick; (b) wal.Open, RecoverWAL,
// the same first tick. After recovery, before the tick, the server's
// state must equal the stopped leader's.
type failover struct {
	p  params
	tr *memTracer

	net                   *wan.Network
	leaderDir, standbyDir string
	next                  []demand.Request // the slot the leader never decided
	want                  serve.Stats      // the stopped leader
	wantLedger            *serve.Ledger
	leaderProfit          float64
	leaderOffered         int
	recovered             int // decisions a recovery has to re-establish

	fetchBytes int64
	fetchTime  time.Duration
	lagAtKill  int64
}

func (w *failover) server(log *wal.Log, tr *memTracer) (*serve.Server, error) {
	pol, err := newPolicy("metis-incremental", replanEvery, nil)
	if err != nil {
		return nil, err
	}
	return serve.New(serve.Config{
		Net: w.net, Slots: slots, Epoch: time.Hour, TickBudget: 0.95, Policy: pol,
		QueueLimit: queueLimit, Check: true, WAL: log, Tracer: tr.asObs(), ScorecardSize: 1 << 10,
	})
}

func (w *failover) setup(tr *memTracer) (err error) {
	w.tr = tr
	w.net = wan.SubB4()
	killAfter, k := w.p.pick(62, 18), w.p.pick(600, 240)
	if w.leaderDir, err = os.MkdirTemp(w.p.tmp, "leader-"); err != nil {
		return err
	}
	if w.standbyDir, err = os.MkdirTemp(w.p.tmp, "standby-"); err != nil {
		return err
	}
	log, err := wal.Open(w.leaderDir, wal.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	// The set-up servers are not traced: the trace is of the recoveries.
	leader, err := w.server(log, nil)
	if err != nil {
		return err
	}
	standby, err := w.server(nil, nil)
	if err != nil {
		return err
	}
	tok, err := ha.LoadOrInitToken(w.leaderDir)
	if err != nil {
		return err
	}
	leader.SetToken(tok)
	nodeL := ha.NewLeader(leader, w.leaderDir)
	ln, closeHTTP, err := leader.Listen("127.0.0.1:0", func(mux *http.ServeMux) { nodeL.Register(mux) })
	if err != nil {
		return err
	}
	defer closeHTTP()
	standby.SetStandby()
	client := newClient()
	defer client.CloseIdleConnections()
	nodeS := ha.NewStandby(standby, w.standbyDir, "http://"+ln.Addr().String(), client)

	ctx := context.Background()
	var cy *cycle
	for step := 0; step <= killAfter; step++ {
		if step%slots == 0 {
			if cy, err = genCycle(w.net, w.p.seed, step/slots, k); err != nil {
				return err
			}
		}
		reqs := cy.bySlot[step%slots]
		if step == killAfter {
			w.next = reqs
			break
		}
		for _, r := range leader.SubmitAll(reqs) {
			if r.Status != serve.StatusQueued {
				return fmt.Errorf("failover set-up: submit answered %q: %s", r.Status, r.Error)
			}
		}
		leader.Tick(ctx)
		before := dirSize(w.standbyDir)
		t0 := time.Now()
		if _, err := nodeS.FetchOnce(ctx); err != nil {
			return fmt.Errorf("failover set-up: fetch after step %d: %w", step, err)
		}
		w.fetchTime += time.Since(t0)
		w.fetchBytes += dirSize(w.standbyDir) - before
		w.leaderOffered += len(reqs)
	}
	w.lagAtKill = nodeS.LagBytes()
	w.want, w.wantLedger = leader.Stats(), leader.LedgerCopy()
	w.recovered = int(w.want.Accepted + w.want.Rejected)
	for _, r := range leader.EpochRecords() {
		w.leaderProfit += r.ProfitDelta
	}
	return nil
}

func (w *failover) teardown() {
	os.RemoveAll(w.leaderDir)
	os.RemoveAll(w.standbyDir)
}

// sameState compares a recovered server with the stopped leader.
func (w *failover) sameState(o *outcome, how string, srv *serve.Server) {
	o.attempted++
	got := srv.Stats()
	switch {
	case got.Epoch != w.want.Epoch, got.Revenue != w.want.Revenue,
		got.PurchasedCost != w.want.PurchasedCost, got.Committed != w.want.Committed,
		got.PurchasedUnits != w.want.PurchasedUnits:
		o.failed++
		o.fail("%s: stats differ from the stopped leader: epoch %d/%d revenue %v/%v cost %v/%v committed %d/%d",
			how, got.Epoch, w.want.Epoch, got.Revenue, w.want.Revenue,
			got.PurchasedCost, w.want.PurchasedCost, got.Committed, w.want.Committed)
	case !srv.LedgerCopy().Equal(w.wantLedger):
		o.failed++
		o.fail("%s: ledger differs from the stopped leader", how)
	}
}

// firstTick submits the slot the leader never decided and ticks; it
// returns the tick's profit.
func (w *failover) firstTick(o *outcome, how string, srv *serve.Server) float64 {
	o.attempted++
	var ids []int64
	ids, _ = tally(o, srv.SubmitAll(w.next), ids)
	srv.Tick(context.Background())
	checkDecided(o, srv, ids)
	recs := srv.EpochRecords()
	if len(recs) == 0 || recs[len(recs)-1].Batch != len(w.next) {
		o.failed++
		o.fail("%s: first tick after recovery did not decide the %d submitted requests", how, len(w.next))
		return 0
	}
	return recs[len(recs)-1].ProfitDelta
}

func (w *failover) run() (*outcome, error) {
	o := newOutcome()
	ctx := context.Background()
	o.probe = capture(w.net, w.next)
	var promoteMs, firstTickMs, failoverMs, restartMs samples
	var tickProfit float64
	for rep := 0; rep < w.p.units; rep++ {
		// (a) promote the standby.
		dir, err := copyDir(w.p.tmp, w.standbyDir)
		if err != nil {
			return nil, err
		}
		srv, err := w.server(nil, w.tr)
		if err != nil {
			return nil, err
		}
		srv.SetStandby()
		node := ha.NewStandby(srv, dir, "", nil)
		t0 := time.Now()
		end := w.tr.begin(trackTick, "ha.promote")
		_, err = node.Promote(ctx)
		end()
		promoted := time.Since(t0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("promote: %w", err)
		}
		w.sameState(o, "promoted", srv)
		t1 := time.Now()
		tickProfit = w.firstTick(o, "promoted", srv)
		first := time.Since(t1)
		srv.WAL().Close()
		os.RemoveAll(dir)
		failoverIn := promoted + first
		promoteMs.add(promoted)
		firstTickMs.add(first)
		failoverMs.add(failoverIn)

		// (b) restart cold from the leader's own log.
		if dir, err = copyDir(w.p.tmp, w.leaderDir); err != nil {
			return nil, err
		}
		t0 = time.Now()
		end = w.tr.begin(trackTick, "wal.open")
		log, err := wal.Open(dir, wal.Options{})
		end()
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if srv, err = w.server(log, w.tr); err == nil {
			end = w.tr.begin(trackTick, "serve.recover_wal")
			_, err = srv.RecoverWAL()
			end()
		}
		recoveredIn := time.Since(t0)
		if err != nil {
			log.Close()
			os.RemoveAll(dir)
			return nil, fmt.Errorf("restart: %w", err)
		}
		w.sameState(o, "restarted", srv)
		t1 = time.Now()
		if p := w.firstTick(o, "restarted", srv); p != tickProfit {
			// Both paths restore the same committed state, but only the
			// snapshot carries the replanner's warm relaxation, so their
			// first decisions may differ; it is reported, not failed.
			o.info["first_tick_profit_gap"] = metric{p - tickProfit, "value"}
		}
		first = time.Since(t1)
		log.Close()
		os.RemoveAll(dir)
		restartIn := recoveredIn + first
		restartMs.add(restartIn)

		// One sample is one recovery each way: the two populations differ
		// in size, so a median over their mix would sit on the boundary.
		o.step(failoverIn + restartIn)
		o.lat.add(failoverIn + restartIn)
		o.decided += 2 * (w.recovered + len(w.next))
	}
	o.offered = w.leaderOffered + len(w.next)
	o.profit = w.leaderProfit + tickProfit
	o.cycles = []cycleSum{{Profit: o.profit, Accepted: w.want.Committed, Decided: w.recovered}}
	o.info["failover_ready_ms"] = metric{failoverMs.sorted().quantile(0.5), "ms"}
	o.info["restart_ready_ms"] = metric{restartMs.sorted().quantile(0.5), "ms"}
	o.info["wal_disk_mb"] = metric{float64(dirSize(w.leaderDir)) / 1e6, "MB"}
	o.layer["ha.promote_ms"] = promoteMs.sorted().quantile(0.5)
	o.layer["ha.first_tick_ms"] = firstTickMs.sorted().quantile(0.5)
	o.layer["ha.fetch_mb_per_s"] = ratio(float64(w.fetchBytes)/1e6, w.fetchTime.Seconds())
	o.layer["ha.lag_bytes_at_kill"] = float64(w.lagAtKill)
	return o, nil
}
