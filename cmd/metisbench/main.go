// Command metisbench regenerates the paper's evaluation figures.
//
// Usage:
//
//	metisbench -fig fig3            # one experiment (fig3, fig4a, ...)
//	metisbench -fig all             # the whole evaluation
//	metisbench -fig fig5 -quick     # scaled-down scales
//	metisbench -fig fig4a -csv      # machine-readable output
//	metisbench -fig all -parallel 0 # scenario points on all CPUs
//	metisbench -fig fig5 -json      # figures + per-experiment perf JSON
//	metisbench -list                # known experiment ids
//	metisbench -fig fig3 -seed 7
//	metisbench -fig fig5 -cpuprofile cpu.out -memprofile mem.out
//	metisbench -fig fig5 -trace trace.jsonl      # structured solve trace (see cmd/metistrace)
//	metisbench -fig all -metrics-addr :9090      # live /metrics, /debug/pprof
//	metisbench -fig fig5 -deadline 2s            # per-point budget; Metis degrades to its incumbent
//	metisbench -fig fig5 -fault lp.solve:sleep:100:1ms   # deterministic fault injection (testing)
//
// Ctrl-C cancels the run through the same context plumbing: in-flight
// solves stop at their next checkpoint and the deferred trace / JSON
// writers still flush whatever completed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"metis/internal/exp"
	"metis/internal/fault"
	"metis/internal/obs"
	"metis/internal/solvectx"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "metisbench:", err)
		os.Exit(1)
	}
}

// benchRecord is one per-experiment performance sample of the -json
// output, shaped so future runs can be diffed mechanically.
type benchRecord struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp uint64 `json:"allocs_per_op"`
}

// jsonReport is the top-level -json document.
type jsonReport struct {
	Config     string        `json:"config"`
	Parallel   int           `json:"parallel"`
	Seed       int64         `json:"seed"`
	Figures    []*exp.Figure `json:"figures"`
	Benchmarks []benchRecord `json:"benchmarks"`
	// SolverStats carries the per-point solver statistics collected
	// during the run: exact B&B nodes/status/gap and Metis round
	// histories.
	SolverStats exp.RunStatsReport `json:"solver_stats"`
	// Counters is the obs registry snapshot after the run (simplex
	// iterations, warm-start hits/stalls, B&B nodes, ...).
	Counters map[string]float64 `json:"counters"`
	// Interrupted records why the run stopped early (context canceled /
	// deadline exceeded); the document then holds every experiment that
	// completed before the interruption. Empty on a full run.
	Interrupted string `json:"interrupted,omitempty"`
}

func run(args []string) (err error) {
	fs := flag.NewFlagSet("metisbench", flag.ContinueOnError)
	var (
		figID       = fs.String("fig", "all", "experiment id (see -list) or \"all\"")
		quick       = fs.Bool("quick", false, "use scaled-down quick configuration")
		csv         = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		chart       = fs.Bool("chart", false, "emit text bar charts instead of tables")
		jsonOut     = fs.Bool("json", false, "emit figures and per-experiment perf records as JSON")
		list        = fs.Bool("list", false, "list known experiment ids and exit")
		seed        = fs.Int64("seed", 0, "override workload seed (0 = config default)")
		parallel    = fs.Int("parallel", 1, "scenario-point workers per experiment (0 = all CPUs, 1 = sequential)")
		cpuProf     = fs.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
		memProf     = fs.String("memprofile", "", "write an allocation profile (after the run) to this file")
		traceOut    = fs.String("trace", "", "write a JSONL trace of every solve to this file (summarize with cmd/metistrace)")
		metricsAddr = fs.String("metrics-addr", "", "serve live metrics on this address: /metrics (Prometheus), /debug/pprof")
		deadline    = fs.Duration("deadline", 0, "wall-time budget per scenario point (0 = unbounded); over-budget Metis solves return their best incumbent")
		faultSpec   = fs.String("fault", "", "arm a deterministic fault site, \"site:kind[:after[:every|sleep]]\" (e.g. core.round:cancel:3); for deadline/cancellation testing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag validation, before any work: conflicting or malformed
	// combinations fail fast with the usage text instead of surfacing
	// minutes into a run (or silently letting one flag win).
	if err := validateFlags(*csv, *chart, *jsonOut, *list); err != nil {
		fmt.Fprintln(os.Stderr, "metisbench:", err)
		fs.Usage()
		return err
	}
	if *list {
		fmt.Println(strings.Join(append(exp.IDs(), "all"), "\n"))
		return nil
	}

	cfg := exp.DefaultConfig()
	cfgName := "default"
	if *quick {
		cfg = exp.QuickConfig()
		cfgName = "quick"
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *parallel <= 0 {
		*parallel = runtime.NumCPU()
	}
	cfg.Parallel = *parallel
	cfg.Deadline = *deadline

	// Ctrl-C cancels every solve through the context plumbing; deferred
	// writers below still flush whatever completed before the signal.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	cfg.Ctx = ctx

	if *faultSpec != "" {
		if err := fault.Parse(*faultSpec, stop); err != nil {
			return err
		}
		defer fault.Reset()
	}

	// Profile files are created up front so a bad path fails the run
	// immediately instead of silently after minutes of experiments; both
	// are closed on every exit path.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	var memFile *os.File
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			return err
		}
		memFile = f
		defer func() {
			// Reached only when an error skipped writeMemProfile.
			if memFile != nil {
				memFile.Close()
			}
		}()
	}
	writeMemProfile := func() error {
		if memFile == nil {
			return nil
		}
		f := memFile
		memFile = nil
		runtime.GC()
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}

	if *metricsAddr != "" {
		srv, err := obs.ServeMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "metisbench: serving metrics on http://%s/metrics\n", srv.Addr)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		tracer := obs.NewJSONLTracer(f)
		defer func() {
			if cerr := tracer.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		cfg.Tracer = tracer
	}

	if *jsonOut {
		if err := runJSON(os.Stdout, *figID, cfgName, cfg); err != nil {
			return err
		}
		return writeMemProfile()
	}

	start := time.Now()
	figs, err := exp.Run(*figID, cfg)
	if err != nil {
		return err
	}
	for _, fig := range figs {
		var werr error
		switch {
		case *csv:
			werr = fig.Table().WriteCSV(os.Stdout)
		case *chart:
			werr = fig.Chart().WriteText(os.Stdout)
		default:
			werr = fig.Table().WriteText(os.Stdout)
		}
		if werr != nil {
			return werr
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "metisbench: %d figure(s) in %v\n", len(figs), time.Since(start).Round(time.Millisecond))
	return writeMemProfile()
}

// validateFlags rejects flag combinations that contradict each other.
// -csv, -chart and -json each claim the whole output stream, so at most
// one may be set; -list exits before any experiment runs, so combining
// it with an output format is a mistake worth stopping on.
func validateFlags(csv, chart, jsonOut, list bool) error {
	formats := 0
	for _, f := range []bool{csv, chart, jsonOut} {
		if f {
			formats++
		}
	}
	if formats > 1 {
		return fmt.Errorf("at most one of -csv, -chart, -json may be set")
	}
	if list && formats > 0 {
		return fmt.Errorf("-list cannot be combined with -csv, -chart or -json")
	}
	return nil
}

// runJSON regenerates each selected experiment separately, recording
// wall time and allocation counts per experiment id, and emits one JSON
// document with both the figure data and the perf records.
func runJSON(w io.Writer, figID, cfgName string, cfg exp.Config) error {
	ids := []string{figID}
	if figID == "all" {
		ids = exp.IDs()
	}
	stats := &exp.RunStats{}
	cfg.Stats = stats
	report := jsonReport{
		Config: cfgName, Parallel: cfg.Parallel, Seed: cfg.Seed,
	}
	var ms runtime.MemStats
	for _, id := range ids {
		runtime.ReadMemStats(&ms)
		allocs0 := ms.Mallocs
		start := time.Now()
		figs, err := exp.Run(id, cfg)
		if err != nil {
			// A cancellation (Ctrl-C) or per-point deadline on a stage
			// without a degradation fallback stops the sweep; emit the
			// document with everything that completed.
			if solvectx.Is(err) {
				report.Interrupted = err.Error()
				break
			}
			return err
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&ms)
		report.Figures = append(report.Figures, figs...)
		report.Benchmarks = append(report.Benchmarks, benchRecord{
			Name:        id,
			NsPerOp:     elapsed.Nanoseconds(),
			AllocsPerOp: ms.Mallocs - allocs0,
		})
	}
	report.SolverStats = stats.Report()
	report.Counters = obs.Snapshot()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}
