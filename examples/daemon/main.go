// The service layer in-process: an admission-control Server (the
// engine inside cmd/metisd) fed a synthetic arrival stream and ticked
// deterministically over a write-ahead log. Mid-cycle the process
// "crashes": the log is closed and reopened, and a fresh server replays
// it and finishes the stream — the crash-recovery path without HTTP or
// wall-clock time.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"

	"metis"
)

func main() {
	net := metis.SubB4()
	reqs, err := metis.GenerateWorkload(net, 120, 3)
	if err != nil {
		log.Fatal(err)
	}
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Start < reqs[j].Start })

	tmp, err := os.MkdirTemp("", "metis-daemon-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "wal")

	// newServer opens the log in dir and builds a server that acks an
	// arrival only once it is fsynced there.
	newServer := func() (*metis.Server, *metis.WAL) {
		l, err := metis.OpenWAL(dir, metis.WALOptions{})
		if err != nil {
			log.Fatal(err)
		}
		policy, err := metis.NewServePolicy("metis-incremental", nil, 2, metis.Config{})
		if err != nil {
			log.Fatal(err)
		}
		s, err := metis.NewServer(metis.ServeConfig{Net: net, Policy: policy, WAL: l})
		if err != nil {
			log.Fatal(err)
		}
		return s, l
	}

	// Feed arrivals in start-slot order, one tick per slot: requests for
	// slot s are submitted before tick s decides them.
	next := 0
	tickUpTo := func(s *metis.Server, slots int) {
		for slot := s.Epoch(); slot < slots; slot++ {
			for next < len(reqs) && reqs[next].Start <= slot {
				if _, err := s.Submit(reqs[next]); err != nil {
					log.Fatal(err)
				}
				next++
			}
			s.Tick(context.Background())
		}
	}

	// First half of the cycle, then the crash: the server is abandoned
	// and only its log survives.
	srv, l := newServer()
	tickUpTo(srv, metis.DefaultSlots/2)
	half := srv.Stats()
	fmt.Printf("epoch %2d   accepted %3d   rejected %3d   revenue %8.2f   (crash)\n",
		half.Epoch, half.Accepted, half.Rejected, half.Revenue)
	if err := l.Close(); err != nil {
		log.Fatal(err)
	}

	// Restart: a fresh server replays the log and finishes the cycle.
	restarted, l := newServer()
	defer l.Close()
	rst, err := restarted.RecoverWAL()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d arrivals and %d epochs from the log\n", rst.Arrivals, rst.Ticks)
	tickUpTo(restarted, metis.DefaultSlots)

	st := restarted.Stats()
	fmt.Printf("epoch %2d   accepted %3d   rejected %3d   revenue %8.2f   cost %8.2f\n",
		st.Epoch, st.Accepted, st.Rejected, st.Revenue, st.PurchasedCost)
}
