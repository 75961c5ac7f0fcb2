// Command metistrace summarizes a JSONL solve trace written by
// metis/metisbench -trace (see internal/obs): the per-round alternation
// timeline, LP warm-start outcome counts, and the slowest LP solves.
//
// Usage:
//
//	metisbench -fig fig5 -quick -trace trace.jsonl
//	metistrace -in trace.jsonl
//	metistrace -in trace.jsonl -top 20   # 20 slowest LP solves
//	metistrace -in trace.jsonl -csv      # machine-readable tables
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"metis/internal/obs"
	"metis/internal/tableio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metistrace:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("metistrace", flag.ContinueOnError)
	var (
		inPath = fs.String("in", "-", "trace JSONL path (\"-\" = stdin)")
		topK   = fs.Int("top", 10, "number of slowest LP solves to list")
		csv    = fs.Bool("csv", false, "emit CSV instead of aligned tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
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
	// Lenient read: traces from newer daemons may carry span fields or
	// whole lines this build does not know; skip what cannot be parsed
	// instead of refusing the file.
	recs, skipped, err := obs.ReadTraceLenient(in)
	if err != nil {
		return err
	}
	if skipped > 0 {
		fmt.Fprintf(os.Stderr, "metistrace: warning: skipped %d malformed trace line(s)\n", skipped)
	}
	if len(recs) == 0 {
		return fmt.Errorf("empty trace")
	}

	write := func(t *tableio.Table) error {
		if *csv {
			if err := t.WriteCSV(w); err != nil {
				return err
			}
		} else if err := t.WriteText(w); err != nil {
			return err
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	if t := epochsTable(recs); t != nil {
		if err := write(t); err != nil {
			return err
		}
	}
	if t := solvesTable(recs); t != nil {
		if err := write(t); err != nil {
			return err
		}
	}
	if t := roundsTable(recs); t != nil {
		if err := write(t); err != nil {
			return err
		}
	}
	if t := warmTable(recs); t != nil {
		if err := write(t); err != nil {
			return err
		}
	}
	if t := slowestLPTable(recs, *topK); t != nil {
		if err := write(t); err != nil {
			return err
		}
	}
	return nil
}

// epochsTable lists every "serve.epoch" span: the daemon's epoch health
// scorecard as seen from the trace (one row per tick). Older traces
// lack the status/elapsed fields; their columns come out empty or zero.
func epochsTable(recs []obs.WireRecord) *tableio.Table {
	t := tableio.New("Service epochs",
		"epoch", "slot", "policy", "status", "batch", "accepted", "rejected", "expired", "shed", "queue", "elapsed_ms", "budget_ms")
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.Kind != "span" || r.Name != "serve.epoch" {
			continue
		}
		n++
		t.AddRow(
			strconv.Itoa(int(r.FieldFloat("epoch"))),
			strconv.Itoa(int(r.FieldFloat("slot"))),
			r.FieldString("policy"),
			r.FieldString("status"),
			strconv.Itoa(int(r.FieldFloat("batch"))),
			strconv.Itoa(int(r.FieldFloat("accepted"))),
			strconv.Itoa(int(r.FieldFloat("rejected"))),
			strconv.Itoa(int(r.FieldFloat("expired"))),
			strconv.Itoa(int(r.FieldFloat("shed"))),
			strconv.Itoa(int(r.FieldFloat("queue_depth"))),
			tableio.FormatFloat(r.FieldFloat("elapsed_ms")),
			tableio.FormatFloat(r.FieldFloat("budget_ms")),
		)
	}
	if n == 0 {
		return nil
	}
	return t
}

// solvesTable lists every "metis.solve" span: the end-to-end solves in
// the trace (a metisbench sweep has one per scenario point).
func solvesTable(recs []obs.WireRecord) *tableio.Table {
	t := tableio.New("Metis solves", "solve", "K", "rounds", "accepted", "profit", "warm_lp", "total_ms")
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.Kind != "span" || r.Name != "metis.solve" {
			continue
		}
		n++
		t.AddRow(
			strconv.Itoa(n),
			strconv.Itoa(int(r.FieldFloat("k"))),
			strconv.Itoa(int(r.FieldFloat("rounds"))),
			strconv.Itoa(int(r.FieldFloat("accepted"))),
			tableio.FormatFloat(r.FieldFloat("profit")),
			strconv.FormatBool(r.Field("warm_lp") == true),
			tableio.FormatFloat(float64(r.DurUS)/1e3),
		)
	}
	if n == 0 {
		return nil
	}
	return t
}

// roundsTable lists every "metis.round" span in trace order: the
// alternation timeline (round counters restart at 1 for each solve).
// bl_start is how the round's BL-SPM solve finished: "seeded" from
// MAA's routing, "warm" from the previous round's basis, or "cold" (the
// ColdLP path, or a warm or seeded start that fell back); traces that
// predate the field leave it empty.
func roundsTable(recs []obs.WireRecord) *tableio.Table {
	t := tableio.New("Alternation rounds",
		"round", "accepted", "maa_ms", "taa_ms", "maa_profit", "taa_profit", "best_profit", "shrink_link", "shrink_step", "bl_start")
	n := 0
	for i := range recs {
		r := &recs[i]
		if r.Kind != "span" || r.Name != "metis.round" {
			continue
		}
		n++
		t.AddRow(
			strconv.Itoa(int(r.FieldFloat("round"))),
			strconv.Itoa(int(r.FieldFloat("accepted"))),
			tableio.FormatFloat(r.FieldFloat("maa_us")/1e3),
			tableio.FormatFloat(r.FieldFloat("taa_us")/1e3),
			tableio.FormatFloat(r.FieldFloat("maa_profit")),
			tableio.FormatFloat(r.FieldFloat("taa_profit")),
			tableio.FormatFloat(r.FieldFloat("best_profit")),
			strconv.Itoa(int(r.FieldFloat("shrink_link"))),
			strconv.Itoa(int(r.FieldFloat("shrink_step"))),
			r.FieldString("bl_start"),
		)
	}
	if n == 0 {
		return nil
	}
	return t
}

// warmTable aggregates the "warm" outcome field of every "lp.solve"
// span: how often warm starts hit, stalled, or went stale (see
// internal/lp warmOutcome).
func warmTable(recs []obs.WireRecord) *tableio.Table {
	counts := map[string]int{}
	total := 0
	for i := range recs {
		r := &recs[i]
		if r.Kind != "span" || r.Name != "lp.solve" {
			continue
		}
		total++
		counts[r.FieldString("warm")]++
	}
	if total == 0 {
		return nil
	}
	t := tableio.New("LP warm-start outcomes", "outcome", "count", "share_%")
	// Fixed order, known outcomes first so the table is stable.
	known := []string{"hit", "capture", "stale", "infeasible-basis", "stall", "off"}
	seen := map[string]bool{}
	for _, k := range known {
		seen[k] = true
		if counts[k] == 0 {
			continue
		}
		t.AddRow(k, strconv.Itoa(counts[k]), tableio.FormatFloat(100*float64(counts[k])/float64(total)))
	}
	var rest []string
	for k := range counts {
		if !seen[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	for _, k := range rest {
		t.AddRow(k, strconv.Itoa(counts[k]), tableio.FormatFloat(100*float64(counts[k])/float64(total)))
	}
	t.AddRow("total", strconv.Itoa(total), "100")
	return t
}

// slowestLPTable lists the k slowest "lp.solve" spans.
func slowestLPTable(recs []obs.WireRecord, k int) *tableio.Table {
	var lps []*obs.WireRecord
	for i := range recs {
		r := &recs[i]
		if r.Kind == "span" && r.Name == "lp.solve" {
			lps = append(lps, r)
		}
	}
	if len(lps) == 0 || k <= 0 {
		return nil
	}
	sort.SliceStable(lps, func(i, j int) bool { return lps[i].DurUS > lps[j].DurUS })
	if len(lps) > k {
		lps = lps[:k]
	}
	t := tableio.New(fmt.Sprintf("Slowest LP solves (top %d)", len(lps)),
		"t_ms", "dur_ms", "m", "n", "iters", "status", "warm")
	for _, r := range lps {
		t.AddRow(
			tableio.FormatFloat(float64(r.TUS)/1e3),
			tableio.FormatFloat(float64(r.DurUS)/1e3),
			strconv.Itoa(int(r.FieldFloat("m"))),
			strconv.Itoa(int(r.FieldFloat("n"))),
			strconv.Itoa(int(r.FieldFloat("iters"))),
			r.FieldString("status"),
			r.FieldString("warm"),
		)
	}
	return t
}
