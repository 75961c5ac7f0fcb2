// Command bench is the repository's benchmark: one harness, six
// workloads and a per-layer ledger for metisd and the Metis pipeline.
// See README.md in this directory.
//
//	go run -C bench . --workload W --seed N --seconds S --trace 0|1   one run
//	go run -C bench .                        every workload, timed then traced
//	go run -C bench . -quick                 the same, each run ≤ 2 s
//	go run -C bench . -compare a.json b.json two result sets against the bounds
//	go run -C bench . -sweep                 paced driver over rate steps
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// result is one run of one workload, as written to out/ and merged
// into results.json.
type result struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Quick     bool              `json:"quick,omitempty"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
	Metrics   map[string]metric `json:"metrics"`        // the gated set: end-to-end or per-layer
	Info      map[string]metric `json:"info,omitempty"` // workload-specific, not gated
}

// line is the last line of a run's standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		workloadName = flag.String("workload", "", "run this workload only (default: all, each in a child process)")
		seed         = flag.Int64("seed", 1, "workload seed: cycle c uses generator seed seed·1000+c")
		seconds      = flag.Float64("seconds", 10, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: timed run, end-to-end metrics; 1: traced run, per-layer metrics")
		quick        = flag.Bool("quick", false, "every workload ≤ 2 s on the same code paths; no bounds apply")
		outDir       = flag.String("out", "out", "directory for results.json, traces and temporary WAL directories")
		specPath     = flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "BENCHMARK.json, for -compare")
		compare      = flag.Bool("compare", false, "compare two results.json files: -compare a.json b.json")
		sweep        = flag.Bool("sweep", false, "exploratory: paced driver over rate steps, writes sweep.json")
		runs         = flag.Int("runs", 1, "without -workload: timed runs per workload, on seeds seed, seed+1, …; makes a result set -compare can take quartiles of")
	)
	flag.Parse()
	// One process, a fixed share of the host: the numbers of a 2-core
	// and a 64-core box stay comparable in kind.
	if n := runtime.NumCPU(); n > 4 {
		runtime.GOMAXPROCS(4)
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(*specPath, flag.Arg(0), flag.Arg(1))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(*outDir, "tmp-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	p := params{seed: *seed, seconds: *seconds, quick: *quick, tmp: tmp}

	switch {
	case *sweep:
		if err := runSweep(p, *outDir); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *workloadName == "":
		return runAll(p, *outDir, *runs)
	}
	sp, ok := findWorkload(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
		return 2
	}
	var res *result
	if *trace != 0 {
		res, err = runTraced(sp, p, *outDir)
	} else {
		res, err = runTimed(sp, p)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", sp.name, err)
		return 1
	}
	if err := writeJSON(filepath.Join(*outDir, resultFile(res.Workload, res.Trace)), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printResult(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func resultFile(workload string, traced bool) string {
	kind := "timed"
	if traced {
		kind = "traced"
	}
	return fmt.Sprintf("result-%s-%s.json", workload, kind)
}

// printResult prints every metric as "workload metric value unit",
// then the result line the driver reads.
func printResult(r *result) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	put := func(m map[string]metric) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "%s %s %s %s\n", r.Workload, n, strconv.FormatFloat(m[n].Value, 'g', -1, 64), m[n].Unit)
		}
	}
	put(r.Metrics)
	put(r.Info)
	fmt.Fprintf(w, "%s attempted %d count\n%s failed %d count\n", r.Workload, r.Attempted, r.Workload, r.Failed)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "%s PROBLEM %s\n", r.Workload, p)
	}
	b, _ := json.Marshal(line{r.Correct, r.Attempted, r.Failed, r.Metrics})
	w.Write(append(b, '\n'))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// peakRSSMB reads VmHWM, the process's peak resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, l := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(l, "VmHWM:") {
			f := strings.Fields(l)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// runAll runs every workload timed (runs times, on consecutive seeds),
// then traced, each in a fresh child process (obs counters, GC state
// and VmHWM are process-wide), prints what they print, and merges their
// result files into results.json.
func runAll(p params, outDir string, runs int) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var all []*result
	code := 0
	for _, sp := range workloads {
		for i := 0; i <= runs; i++ {
			traced := i == runs
			seed := p.seed
			if !traced {
				seed += int64(i)
			}
			args := []string{
				"-workload", sp.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(p.seconds, 'g', -1, 64), "-out", outDir,
				"-trace", map[bool]string{false: "0", true: "1"}[traced],
			}
			if p.quick {
				args = append(args, "-quick")
			}
			// A child that dies must not leave an older run's file to be read.
			file := filepath.Join(outDir, resultFile(sp.name, traced))
			os.Remove(file)
			cmd := exec.Command(self, args...)
			var out bytes.Buffer
			cmd.Stdout, cmd.Stderr = &out, os.Stderr
			runErr := cmd.Run()
			// Everything but the child's result line is for the reader.
			text := strings.TrimRight(out.String(), "\n")
			if i := strings.LastIndexByte(text, '\n'); i >= 0 {
				fmt.Println(text[:i])
			}
			if runErr != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace=%v): %v\n", sp.name, traced, runErr)
				code = 1
			}
			var r result
			b, err := os.ReadFile(file)
			if err == nil {
				err = json.Unmarshal(b, &r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace=%v): no result: %v\n", sp.name, traced, err)
				code = 1
				continue
			}
			all = append(all, &r)
		}
	}
	if err := writeJSON(filepath.Join(outDir, "results.json"), all); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}
