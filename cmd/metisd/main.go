// Command metisd is the long-running admission-control daemon: it
// accepts bandwidth-reservation requests over HTTP, batches arrivals
// into epoch ticks, decides each batch with the configured policy
// against the billing cycle's ledger, and answers queries about
// decisions, link state and counters.
//
// Usage:
//
//	metisd -addr :8080 -network SUB-B4 -epoch 250ms
//	metisd -policy metis-incremental -replan-every 2   # persistent warm model across epochs
//	metisd -policy taa -plan-units 20
//	metisd -check                                     # post-tick ledger invariant sweep
//	metisd -trace lifecycle.jsonl                     # JSONL arrival/solve/epoch spans (render with metistrace)
//	metisd -wal-dir wal/                              # durable: ack only after the arrival is fsynced; replays wal/ on restart
//	                                                  # (without -wal-dir the state lives in memory only)
//	metisd -standby -wal-dir mirror/ -primary-url http://leader:8080   # hot standby: applies the log it mirrors
//	metisd -promote http://standby:8081               # client mode: promote a standby, then exit
//
//	curl -s localhost:8080/v1/requests -d '{"src":0,"dst":1,"start":0,"end":11,"rate":0.2,"value":40}'
//	curl -s localhost:8080/v1/decisions/1
//	curl -s localhost:8080/v1/stats
//
// SIGINT/SIGTERM triggers the graceful drain: intake stops (503) and
// final ticks decide everything still queued.
//
// API:
//
//	POST /v1/requests        submit a request → 202 {id} (422 invalid, 429 shed, 503 draining)
//	POST /v1/requests/batch  submit a JSON array of requests → 200 [results]
//	GET  /v1/decisions/{id}  decision record
//	GET  /v1/links           per-link ledger state
//	GET  /v1/stats           counters + daemon time + latency digests
//	GET  /healthz            readiness: 200 keeping up, 503 shedding/behind/draining
//	GET  /debug/epochs       epoch health scorecard (one JSON record per tick, the last 512)
//	POST /v1/promote         standby only: promote to leader → 200 {report}
//	GET  /ha/v1/wal          leader: durable WAL bytes for a standby mirror, waiting for the next group
//	                         commit when there are none; headers carry the fencing token, durable end and lag
//	POST /ha/v1/fence        step down when presented a newer fencing token
//	GET  /metrics            Prometheus solver, WAL and HA instruments (plus /debug/pprof)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"metis"
	"metis/internal/fault"
	"metis/internal/obs"
)

// faultFlags collects repeatable -fault specs.
type faultFlags []string

func (f *faultFlags) String() string     { return strings.Join(*f, ",") }
func (f *faultFlags) Set(v string) error { *f = append(*f, v); return nil }

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "metisd:", err)
		os.Exit(1)
	}
}

// promoteStandby is the -promote client mode: ask the standby at base
// to take over, print its report, exit.
func promoteStandby(base string) error {
	url := strings.TrimRight(base, "/") + "/v1/promote"
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	os.Stdout.Write(body)
	if len(body) > 0 && body[len(body)-1] != '\n' {
		fmt.Println()
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("promote: HTTP %d", resp.StatusCode)
	}
	return nil
}

func httpJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("metisd", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8080", "HTTP listen address")
		network     = fs.String("network", "B4", "topology: B4 or SUB-B4")
		slots       = fs.Int("slots", metis.DefaultSlots, "billing-cycle slots")
		epoch       = fs.Duration("epoch", 500*time.Millisecond, "epoch tick interval")
		tickBudget  = fs.Float64("tick-budget", 0.8, "fraction of the epoch granted to each tick's decision")
		policyName  = fs.String("policy", "greedy", "epoch policy: greedy, taa or metis-incremental")
		planUnits   = fs.Int("plan-units", 0, "taa: uniform per-link provision in units (0 = only capacity bought so far)")
		replanEvery = fs.Int("replan-every", 1, "metis-incremental: replan period in epochs")
		queueLimit  = fs.Int("queue-limit", 0, "arrival-queue bound; submits beyond it are shed with 429 (0 = default)")
		maxBatch    = fs.Int("max-batch", 0, "max arrivals one tick claims; the excess stays queued (0 = whole queue)")
		traceOut    = fs.String("trace", "", "write a JSONL trace of the request lifecycle (arrival/solve/epoch) to this file")
		check       = fs.Bool("check", false, "run the ledger invariant checker after every tick (stats report checkFailures)")
		walDir      = fs.String("wal-dir", "", "write-ahead log directory: arrivals are acked only once fsynced, ticks log redo records, recovery replays on start")
		standby     = fs.Bool("standby", false, "run as a hot standby: mirror the leader's WAL into -wal-dir and apply it as it lands, refuse intake until promoted")
		primaryURL  = fs.String("primary-url", "", "standby: the leader's base URL (e.g. http://leader:8080)")
		promoteURL  = fs.String("promote", "", "client mode: POST /v1/promote to this standby's base URL, print the report and exit")
	)
	var faults faultFlags
	fs.Var(&faults, "fault", "fault-injection spec site:kind[:after[:every|sleep]] (repeatable; testing only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, spec := range faults {
		if err := fault.Parse(spec, nil); err != nil {
			return fmt.Errorf("-fault %q: %w", spec, err)
		}
	}
	if *promoteURL != "" {
		return promoteStandby(*promoteURL)
	}
	if *standby {
		if *walDir == "" || *primaryURL == "" {
			return fmt.Errorf("-standby needs both -wal-dir and -primary-url")
		}
	}

	sc := &metis.Scenario{Network: *network}
	net, err := sc.BuildNetwork()
	if err != nil {
		return err
	}

	var plan []int
	if *planUnits > 0 {
		plan = make([]int, net.NumLinks())
		for e := range plan {
			plan[e] = *planUnits
		}
	}

	var tracer obs.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		jt := obs.NewJSONLTracer(f)
		defer func() {
			if cerr := jt.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		tracer = jt
	}

	// metis-incremental's fallback full solve runs the default θ and
	// MAA roundings from seed 1; its replans are traced with the daemon.
	policy, err := metis.NewServePolicy(*policyName, plan, *replanEvery, metis.Config{Seed: 1, Tracer: tracer})
	if err != nil {
		return err
	}

	// A leader's WAL opens before the server so every ack is durable
	// from the first request; a standby opens the mirrored log itself
	// at promotion time.
	var walLog *metis.WAL
	if *walDir != "" && !*standby {
		if walLog, err = metis.OpenWAL(*walDir, metis.WALOptions{}); err != nil {
			return err
		}
		defer walLog.Close()
	}

	srv, err := metis.NewServer(metis.ServeConfig{
		Net:        net,
		Slots:      *slots,
		Epoch:      *epoch,
		TickBudget: *tickBudget,
		Policy:     policy,
		QueueLimit: *queueLimit,
		MaxBatch:   *maxBatch,
		Tracer:     tracer,
		Check:      *check,
		WAL:        walLog,
	})
	if err != nil {
		return err
	}

	// SIGINT/SIGTERM cancels the tick loop; Run drains before returning.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Recovery reads the log: a standby applies what it mirrors, a
	// leader replays its own.
	var node *metis.HANode
	sctx, scancel := context.WithCancel(ctx)
	defer scancel()
	repDone := make(chan struct{})
	promoted := make(chan struct{})
	var promoteOnce sync.Once
	switch {
	case *standby:
		srv.SetStandby()
		node = metis.NewHAStandby(srv, *walDir, strings.TrimRight(*primaryURL, "/"))
		go func() {
			defer close(repDone)
			node.RunStandby(sctx)
		}()
	case walLog != nil:
		rst, err := srv.RecoverWAL()
		if err != nil {
			return fmt.Errorf("wal recovery: %w", err)
		}
		if rst.Arrivals+rst.Ticks > 0 {
			fmt.Fprintf(os.Stderr, "metisd: wal replayed %d arrivals, %d epochs (now epoch %d, %d queued)\n",
				rst.Arrivals, rst.Ticks, srv.Epoch(), srv.Stats().QueueDepth)
		}
		if err := metis.InitFencingToken(srv); err != nil {
			return err
		}
		node = metis.NewHALeader(srv, *walDir)
	}

	ln, closeHTTP, err := srv.Listen(*addr, func(mux *http.ServeMux) {
		obs.Register(mux)
		if node == nil {
			return
		}
		node.Register(mux)
		mux.HandleFunc("POST /v1/promote", func(w http.ResponseWriter, r *http.Request) {
			if !*standby {
				httpJSON(w, http.StatusConflict, map[string]string{"error": "not a standby"})
				return
			}
			var rep metis.HAPromoteReport
			var perr error
			ran := false
			promoteOnce.Do(func() {
				ran = true
				// Stop replicating before touching the mirror.
				scancel()
				<-repDone
				rep, perr = node.Promote(r.Context())
				if perr == nil {
					close(promoted)
				}
			})
			switch {
			case !ran:
				httpJSON(w, http.StatusConflict, map[string]string{"error": "promotion already requested"})
			case perr != nil:
				httpJSON(w, http.StatusInternalServerError, map[string]string{"error": perr.Error()})
			default:
				httpJSON(w, http.StatusOK, rep)
			}
		})
	})
	if err != nil {
		return err
	}
	defer closeHTTP()
	fmt.Fprintf(os.Stderr, "metisd: serving %s (%d links, %d slots) on http://%s policy=%s epoch=%v role=%s\n",
		net.Name(), net.NumLinks(), *slots, ln.Addr(), *policyName, *epoch, srv.Role())
	fmt.Fprintln(os.Stderr, "metisd: observability: /metrics /healthz /debug/epochs")

	if *standby {
		fmt.Fprintf(os.Stderr, "metisd: standby mirroring %s into %s (POST /v1/promote to take over)\n",
			*primaryURL, *walDir)
		select {
		case <-ctx.Done():
			scancel()
			<-repDone
			return nil
		case <-promoted:
			fmt.Fprintf(os.Stderr, "metisd: promoted to leader (fencing token %d, epoch %d, %d queued)\n",
				srv.Token(), srv.Epoch(), srv.Stats().QueueDepth)
			defer srv.WAL().Close()
		}
	}
	if err := srv.Run(ctx); err != nil {
		return err
	}

	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "metisd: drained after %d epochs: %d accepted, %d rejected, %d shed, %d degraded epochs, revenue=%.3f cost=%.3f\n",
		st.Epoch, st.Accepted, st.Rejected, st.Shed, st.DegradedEpochs, st.Revenue, st.PurchasedCost)
	return nil
}
