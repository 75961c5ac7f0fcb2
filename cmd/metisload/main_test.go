package main

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"metis"
)

// startDaemon serves a fresh admission daemon, ticking every 10 ms, over
// an httptest server; cleanup stops the tick loop and the listener.
func startDaemon(t *testing.T, queueLimit int) string {
	t.Helper()
	srv, err := metis.NewServer(metis.ServeConfig{
		Net: metis.SubB4(), Epoch: 10 * time.Millisecond, QueueLimit: queueLimit,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.Run(ctx)
	}()
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		wg.Wait()
	})
	return hs.URL
}

// writeTrace writes n arrivals, 1 ms apart, alternating a lucrative
// request with a worthless one, and returns the trace's path.
func writeTrace(t *testing.T, n int) string {
	t.Helper()
	arrivals := make([]metis.Arrival, n)
	for i := range arrivals {
		req := metis.Request{Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.2, Value: 1e6}
		if i%2 == 1 {
			req.Rate, req.Value = 0.9, 1e-6
		}
		arrivals[i] = metis.Arrival{AtMillis: int64(i), Request: req}
	}
	var b strings.Builder
	if err := metis.WriteArrivals(&b, arrivals); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunPacedReplay(t *testing.T) {
	addr := startDaemon(t, 0)
	trace := writeTrace(t, 20)
	if err := run([]string{"-addr", addr, "-in", trace, "-min-accepts", "1", "-max-errors", "0"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunOpenLoopBatches(t *testing.T) {
	addr := startDaemon(t, 0)
	trace := writeTrace(t, 120)
	if err := run([]string{"-addr", addr, "-in", trace, "-open-loop", "-batch", "50", "-min-accepts", "1", "-max-errors", "0", "-json"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMaxErrorsFailsOnShed(t *testing.T) {
	// One POST of 50 into a queue of 8 sheds most of the batch.
	addr := startDaemon(t, 8)
	trace := writeTrace(t, 50)
	err := run([]string{"-addr", addr, "-in", trace, "-open-loop", "-batch", "50", "-max-errors", "0"})
	if err == nil || !strings.Contains(err.Error(), "exceed -max-errors 0") {
		t.Fatalf("run = %v, want a -max-errors failure", err)
	}
}

func TestRunRefusesSpeedup(t *testing.T) {
	err := run([]string{"-speedup", "2"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -speedup") {
		t.Fatalf("run = %v, want -speedup refused", err)
	}
}
