// Command metisload replays a timestamped JSONL arrival stream (see
// cmd/wangen -stream) against a running metisd and reports sustained
// throughput. It drives the acceptance bench and the CI smoke:
//
//	wangen -network SUB-B4 -k 200 -stream -rate 100 > trace.jsonl
//	metisd -addr :8080 -network SUB-B4 -epoch 100ms &
//	metisload -addr http://localhost:8080 -in trace.jsonl -min-accepts 1
//
// Each arrival is POSTed at its trace timestamp; after the last submit,
// metisload waits for the daemon to decide the whole queue and reports
// throughput, per-outcome counts and the daemon's decision-latency
// quantiles (p50/p95/p99). The default output is a human-readable
// digest; -json emits the machine-readable summary that the CI smokes
// assert on.
//
// Open-loop mode stress-tests ingest and decision throughput instead of
// replaying wall-clock arrivals: -open-loop ignores the trace
// timestamps and submits as fast as the daemon ingests, -repeat N loops
// the trace N times (a million-request run from a 20k-request trace),
// and -batch N posts N requests per call to /v1/requests/batch so JSON
// decode stays off the per-request path:
//
//	metisload -in trace.jsonl -open-loop -repeat 50 -batch 256
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"metis"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metisload:", err)
		os.Exit(1)
	}
}

// summary is the replay report run writes.
type summary struct {
	Arrivals          int                                  `json:"arrivals"`
	Submitted         int                                  `json:"submitted"`
	Shed              int                                  `json:"shed"`
	Invalid           int                                  `json:"invalid"`
	Accepted          int64                                `json:"accepted"`
	Rejected          int64                                `json:"rejected"`
	DegradedEpochs    int64                                `json:"degradedEpochs"`
	DegradedDecisions int64                                `json:"degradedDecisions"`
	Overruns          int64                                `json:"overruns"`
	CheckFailures     int64                                `json:"checkFailures"`
	LastCheckError    string                               `json:"lastCheckError,omitempty"`
	Epochs            int                                  `json:"epochs"`
	ElapsedMillis     int64                                `json:"elapsedMillis"`
	DecisionsPerSec   float64                              `json:"decisionsPerSec"`
	Latency           map[string]metis.ServeLatencySummary `json:"latency,omitempty"`
}

// writeText writes the human-readable digest of one replay to w.
func (s *summary) writeText(w io.Writer, policy string) {
	fmt.Fprintf(w, "metisload: %d arrivals in %.1fs: %d submitted, %d shed, %d invalid\n",
		s.Arrivals, float64(s.ElapsedMillis)/1e3, s.Submitted, s.Shed, s.Invalid)
	fmt.Fprintf(w, "metisload: %d accepted, %d rejected (%d degraded decisions) over %d epochs (%d degraded, %d overruns), %.1f decisions/sec, policy=%s\n",
		s.Accepted, s.Rejected, s.DegradedDecisions, s.Epochs, s.DegradedEpochs, s.Overruns, s.DecisionsPerSec, policy)
	if s.CheckFailures > 0 {
		fmt.Fprintf(w, "metisload: LEDGER CHECK FAILURES: %d (last: %s)\n", s.CheckFailures, s.LastCheckError)
	}
	keys := make([]string, 0, len(s.Latency))
	for k := range s.Latency {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		l := s.Latency[k]
		if l.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "metisload: latency %-9s p50=%.2fms p95=%.2fms p99=%.2fms max=%.2fms (n=%d)\n",
			k, l.P50Millis, l.P95Millis, l.P99Millis, l.MaxMillis, l.Count)
	}
}

// run replays the trace args name and writes the summary, or with
// -json its JSON form, to out.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("metisload", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "http://localhost:8080", "metisd base URL")
		inPath     = fs.String("in", "-", "JSONL arrival trace (\"-\" = stdin)")
		settle     = fs.Duration("settle", 30*time.Second, "how long to wait for the daemon to decide the full queue")
		minAccepts = fs.Int64("min-accepts", 0, "fail unless at least this many requests are accepted")
		jsonOut    = fs.Bool("json", false, "emit the machine-readable JSON summary instead of the text digest")
		openLoop   = fs.Bool("open-loop", false, "ignore trace timestamps and submit as fast as the daemon ingests")
		repeat     = fs.Int("repeat", 1, "replay the trace this many times (the daemon re-ids every pass)")
		batchSize  = fs.Int("batch", 0, "submit this many requests per POST via /v1/requests/batch (0 = one request per POST)")
		maxErrors  = fs.Int("max-errors", -1, "fail when shed + invalid submissions exceed this (-1 = no limit)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *repeat < 1 {
		return fmt.Errorf("-repeat must be at least 1")
	}

	in := os.Stdin
	if *inPath != "-" {
		f, err := os.Open(*inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	arrivals, err := metis.ReadArrivals(in)
	if err != nil {
		return err
	}
	if len(arrivals) == 0 {
		return fmt.Errorf("empty trace")
	}

	client := &http.Client{Timeout: 10 * time.Second}
	var sum summary
	sum.Arrivals = len(arrivals) * *repeat

	// Pacing: closed-loop replays honor each arrival's trace offset
	// (repeat passes play back to back, offset by the trace span);
	// -open-loop submits as fast as the daemon ingests.
	span := arrivals[len(arrivals)-1].AtMillis
	start := time.Now()
	for rep := 0; rep < *repeat; rep++ {
		repBase := int64(rep) * span
		if *batchSize > 0 {
			for i := 0; i < len(arrivals); i += *batchSize {
				j := i + *batchSize
				if j > len(arrivals) {
					j = len(arrivals)
				}
				if !*openLoop {
					pace(start, repBase+arrivals[i].AtMillis)
				}
				reqs := make([]metis.Request, 0, j-i)
				for _, a := range arrivals[i:j] {
					reqs = append(reqs, a.Request)
				}
				if err := submitBatch(client, *addr, reqs, &sum); err != nil {
					return fmt.Errorf("submit batch at arrival %d: %w", i, err)
				}
			}
			continue
		}
		for i := range arrivals {
			if !*openLoop {
				pace(start, repBase+arrivals[i].AtMillis)
			}
			body, err := json.Marshal(&arrivals[i].Request)
			if err != nil {
				return err
			}
			resp, err := client.Post(*addr+"/v1/requests", "application/json", bytes.NewReader(body))
			if err != nil {
				return fmt.Errorf("submit arrival %d: %w", i, err)
			}
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusAccepted:
				sum.Submitted++
			case http.StatusTooManyRequests:
				sum.Shed++
			case http.StatusUnprocessableEntity:
				sum.Invalid++
			default:
				return fmt.Errorf("submit arrival %d: unexpected status %d", i, resp.StatusCode)
			}
		}
	}

	// Wait for the daemon to decide everything we managed to enqueue.
	stats, err := waitDecided(client, *addr, int64(sum.Submitted), *settle)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	sum.Accepted = stats.Accepted
	sum.Rejected = stats.Rejected
	sum.DegradedEpochs = stats.DegradedEpochs
	sum.DegradedDecisions = stats.DegradedDecisions
	sum.Overruns = stats.Overruns
	sum.CheckFailures = stats.CheckFailures
	sum.LastCheckError = stats.LastCheckError
	sum.Epochs = stats.Epoch
	sum.ElapsedMillis = elapsed.Milliseconds()
	sum.Latency = stats.Latency
	if s := elapsed.Seconds(); s > 0 {
		sum.DecisionsPerSec = float64(stats.Accepted+stats.Rejected) / s
	}

	if *jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&sum); err != nil {
			return err
		}
	} else {
		sum.writeText(out, stats.Policy)
	}
	if sum.Accepted < *minAccepts {
		return fmt.Errorf("accepted %d requests, want at least %d", sum.Accepted, *minAccepts)
	}
	// A ledger invariant failure on the daemon (metisd -check) is never
	// acceptable, whatever the error budget.
	if sum.CheckFailures > 0 {
		return fmt.Errorf("daemon reports %d ledger check failure(s): %s", sum.CheckFailures, sum.LastCheckError)
	}
	if *maxErrors >= 0 && sum.Shed+sum.Invalid > *maxErrors {
		return fmt.Errorf("%d shed + %d invalid submissions exceed -max-errors %d", sum.Shed, sum.Invalid, *maxErrors)
	}
	return nil
}

// pace sleeps until the trace offset atMillis has elapsed since start.
func pace(start time.Time, atMillis int64) {
	if wait := time.Duration(atMillis)*time.Millisecond - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}
}

// submitBatch posts one request batch to /v1/requests/batch and folds
// the per-request outcomes into the summary.
func submitBatch(client *http.Client, addr string, reqs []metis.Request, sum *summary) error {
	body, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	resp, err := client.Post(addr+"/v1/requests/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("unexpected status %d", resp.StatusCode)
	}
	var results []metis.ServeBatchResult
	if err := json.NewDecoder(resp.Body).Decode(&results); err != nil {
		return err
	}
	for _, r := range results {
		switch r.Status {
		case "queued":
			sum.Submitted++
		case "shed":
			sum.Shed++
		case "invalid":
			sum.Invalid++
		default:
			return fmt.Errorf("request refused: %s (%s)", r.Status, r.Error)
		}
	}
	return nil
}

// waitDecided polls /v1/stats until accepted+rejected covers every
// submitted request (or the settle budget runs out).
func waitDecided(client *http.Client, addr string, submitted int64, settle time.Duration) (*metis.ServeStats, error) {
	deadline := time.Now().Add(settle)
	for {
		resp, err := client.Get(addr + "/v1/stats")
		if err != nil {
			return nil, err
		}
		var st metis.ServeStats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if st.Accepted+st.Rejected >= submitted {
			return &st, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("daemon decided %d of %d submits within %v", st.Accepted+st.Rejected, submitted, settle)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
