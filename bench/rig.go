package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/obs"
	"metis/internal/serve"
	"metis/internal/wal"
	"metis/internal/wan"
)

const slots = demand.DefaultSlots

// policySeed is metisd's default -seed: the benchmark runs the policy
// configuration an operator gets without flags.
const policySeed = 1

// cycle is one billing cycle's arrivals, grouped by the slot whose
// tick must decide them (a request's Start).
type cycle struct {
	bySlot [slots][]demand.Request
	n      int
}

func (c *cycle) all() []demand.Request {
	out := make([]demand.Request, 0, c.n)
	for _, s := range c.bySlot {
		out = append(out, s...)
	}
	return out
}

// genCycle draws cycle c of a workload: k requests from a generator
// seeded seed·1000+c, ordered by Start (generator order within a slot).
func genCycle(net *wan.Network, seed int64, c, k int) (*cycle, error) {
	g, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed*1000+int64(c)))
	if err != nil {
		return nil, err
	}
	reqs, err := g.GenerateN(k)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Start < reqs[b].Start })
	cy := &cycle{n: k}
	for _, r := range reqs {
		cy.bySlot[r.Start] = append(cy.bySlot[r.Start], r)
	}
	return cy, nil
}

// chunk splits reqs into batches of at most n.
func chunk(reqs []demand.Request, n int) [][]demand.Request {
	var out [][]demand.Request
	for len(reqs) > n {
		out = append(out, reqs[:n])
		reqs = reqs[n:]
	}
	if len(reqs) > 0 {
		out = append(out, reqs)
	}
	return out
}

// rigConfig is the part of serve.Config the workloads vary.
type rigConfig struct {
	net        *wan.Network
	policy     serve.Policy
	epoch      time.Duration
	tickBudget float64
	queueLimit int
	maxBatch   int
	listen     bool // serve the HTTP API on a loopback port
	tracer     obs.Tracer
}

// rig is one in-process metisd: a WAL in a fresh directory, the
// server, and optionally its loopback listener with one client.
type rig struct {
	dir       string
	log       *wal.Log
	srv       *serve.Server
	policy    serve.Policy
	url       string
	closeHTTP func() error
	client    *http.Client
}

// newRig opens the WAL under a fresh subdirectory of tmp and starts
// the server. Close removes the directory.
func newRig(tmp string, c rigConfig) (*rig, error) {
	dir, err := os.MkdirTemp(tmp, "wal-")
	if err != nil {
		return nil, err
	}
	r := &rig{dir: dir, policy: c.policy}
	if r.log, err = wal.Open(dir, wal.Options{}); err != nil {
		r.close()
		return nil, err
	}
	r.srv, err = serve.New(serve.Config{
		Net: c.net, Slots: slots, Epoch: c.epoch, TickBudget: c.tickBudget,
		Policy: c.policy, QueueLimit: c.queueLimit, MaxBatch: c.maxBatch,
		Tracer: c.tracer, Check: true, WAL: r.log,
		// Every tick of a run stays readable: profit and tick times are
		// taken from the scorecard after the run.
		ScorecardSize: 1 << 14,
	})
	if err != nil {
		r.close()
		return nil, err
	}
	if c.listen {
		ln, closeHTTP, err := r.srv.Listen("127.0.0.1:0", nil)
		if err != nil {
			r.close()
			return nil, err
		}
		r.url, r.closeHTTP = "http://"+ln.Addr().String(), closeHTTP
		r.client = newClient()
		// Open the keep-alive connection now so the first timed POST
		// does not pay the TCP handshake.
		resp, err := r.client.Get(r.url + "/healthz")
		if err != nil {
			r.close()
			return nil, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	return r, nil
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}
}

func (r *rig) close() {
	if r.closeHTTP != nil {
		r.closeHTTP()
	}
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.log != nil {
		r.log.Close()
	}
	os.RemoveAll(r.dir)
}

// postBatch POSTs one pre-encoded JSON array to /v1/requests/batch.
func postBatch(c *http.Client, url string, body []byte) ([]serve.BatchResult, error) {
	resp, err := c.Post(url+"/v1/requests/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("batch POST: HTTP %d", resp.StatusCode)
	}
	var out []serve.BatchResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("batch POST: %w", err)
	}
	return out, nil
}

// postSingle POSTs one request to /v1/requests and returns its id.
func postSingle(c *http.Client, url string, body []byte) (int64, error) {
	resp, err := c.Post(url+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("single POST: HTTP %d", resp.StatusCode)
	}
	var d serve.Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		return 0, fmt.Errorf("single POST: %w", err)
	}
	return d.ID, nil
}

// newPolicy builds the policy a workload names, or the benchmark's
// traced transcription of it when tr is set.
func newPolicy(name string, replanEvery int, tr *memTracer) (serve.Policy, error) {
	if tr != nil {
		switch name {
		case "greedy":
			return &tracedGreedy{tr: tr}, nil
		case "metis-incremental":
			return newTracedMetis(replanEvery, tr), nil
		}
		return nil, fmt.Errorf("no traced transcription of policy %q", name)
	}
	return serve.NewPolicy(name, nil, replanEvery, core.Config{Seed: policySeed})
}

// dirSize sums the regular files under dir.
func dirSize(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}

// copyDir copies the regular files of src (a WAL directory is flat)
// into a fresh directory under tmp.
func copyDir(tmp, src string) (string, error) {
	dst, err := os.MkdirTemp(tmp, "copy-")
	if err != nil {
		return "", err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return "", err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return "", err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return "", err
		}
	}
	return dst, nil
}
