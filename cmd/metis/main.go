// Command metis schedules a scenario: it reads a scenario JSON (see
// cmd/wangen to generate one), runs the Metis framework, and writes the
// acceptance + scheduling decisions as JSON.
//
// Usage:
//
//	wangen -network B4 -k 200 -seed 7 > scenario.json
//	metis -in scenario.json -out decision.json
//	metis -in scenario.json -theta 12 -maa-rounds 3
//	metis -in scenario.json -trace trace.jsonl      # see cmd/metistrace
//	metis -in scenario.json -metrics-addr :9090     # live /metrics + pprof
//	metis -in scenario.json -deadline 2s            # budgeted solve; degrades to the best incumbent
//
// Ctrl-C cancels the solve at its next checkpoint: the best schedule
// found so far is still written (marked "degraded" in the JSON) and the
// trace file is flushed.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"metis"
	"metis/internal/obs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "metis:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("metis", flag.ContinueOnError)
	var (
		inPath      = fs.String("in", "-", "scenario JSON path (\"-\" = stdin)")
		outPath     = fs.String("out", "-", "decision JSON path (\"-\" = stdout)")
		theta       = fs.Int("theta", 0, "alternation rounds θ (0 = default)")
		tauStep     = fs.Int("tau-step", 0, "BW-limiter shrink units (0 = default)")
		maaRounds   = fs.Int("maa-rounds", 0, "randomized roundings per MAA call (0 = default)")
		seed        = fs.Int64("seed", 1, "randomized-rounding seed")
		traceOut    = fs.String("trace", "", "write a JSONL trace of the solve to this file (summarize with cmd/metistrace)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics on this address: /metrics (Prometheus), /debug/pprof")
		deadline    = fs.Duration("deadline", 0, "wall-time budget for the solve (0 = unbounded); on expiry the best incumbent is written, marked degraded")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var tracer obs.Tracer
	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metis: serving metrics on http://%s/metrics\n", srv.Addr)
	}
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

	in := io.Reader(os.Stdin)
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc, err := metis.ReadScenario(in)
	if err != nil {
		return err
	}
	inst, err := sc.Instance()
	if err != nil {
		return err
	}

	// Ctrl-C (and -deadline) cancel the solve through the context; the
	// decision and trace writers below still run on a degraded result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	res, err := metis.SolveCtx(ctx, inst, metis.Config{
		Theta:     *theta,
		TauStep:   *tauStep,
		MAARounds: *maaRounds,
		Seed:      *seed,
		Tracer:    tracer,
	})
	if err != nil {
		return err
	}

	out := io.Writer(os.Stdout)
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if err := metis.WriteDecision(out, metis.NewDecision(res)); err != nil {
		return err
	}
	if res.Degraded {
		fmt.Fprintf(os.Stderr, "metis: degraded after %d round(s): %v\n", len(res.Rounds), res.Cause)
	}
	fmt.Fprintf(os.Stderr, "metis: profit=%.3f revenue=%.3f cost=%.3f accepted=%d/%d in %v\n",
		res.Profit, res.Revenue, res.Cost, res.Schedule.NumAccepted(), inst.NumRequests(), res.Elapsed)
	return nil
}
