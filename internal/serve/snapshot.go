package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"metis/internal/demand"
	"metis/internal/fsx"
)

// SnapshotVersion is the wire version of the snapshot format, and the
// only one Restore reads; images of other versions are refused, not
// migrated. It carries no WAL offset or fencing token: a server with a
// WAL recovers from the log alone.
const SnapshotVersion = 4

// Snapshot is the JSON crash-recovery image of a Server without a WAL:
// the committed ledger plus every queued-but-undecided arrival, with
// enough daemon time (epoch, next id) to resume exactly where the
// process stopped, and — for metis-incremental — the cycle state needed
// to rebuild the persistent replan model deterministically. Decision
// history is observability, not ledger state, and is not persisted. A
// server recovers from a snapshot or from its log, never both.
type Snapshot struct {
	Version int    `json:"version"`
	Network string `json:"network"`
	Links   int    `json:"links"`
	Slots   int    `json:"slots"`
	Epoch   int    `json:"epoch"`
	NextID  int64  `json:"nextId"`
	// Ledger is the committed per-(link, slot) state.
	Ledger LedgerImage `json:"ledger"`
	// Queue holds the pending arrivals in submission order.
	Queue []QueuedRequest `json:"queue"`
	// Policy is the admission policy's cycle state as of the last
	// committed tick (nil for stateless policies).
	Policy *PolicyState `json:"policy,omitempty"`
	// Revenue is Stats.Revenue: the accepted value of every epoch so
	// far, never reset when a cycle wraps.
	Revenue float64 `json:"revenue,omitempty"`
}

// QueuedRequest is one pending arrival in a snapshot.
type QueuedRequest struct {
	ID      int64          `json:"id"`
	Request demand.Request `json:"request"`
}

// Snapshot writes the server's crash-recovery image to w. It is safe
// to call concurrently with Submit and Tick: the image is consistent —
// the committed ledger, the policy state matching it (captured at the
// last tick boundary, never mid-decision), plus every arrival not yet
// committed (including a batch an in-flight tick is still deciding).
func (s *Server) Snapshot(w io.Writer) error {
	s.mu.Lock()
	snap := Snapshot{
		Version: SnapshotVersion,
		Network: s.cfg.Net.Name(),
		Links:   s.cfg.Net.NumLinks(),
		Slots:   s.cfg.Slots,
		Epoch:   s.epoch,
		NextID:  s.nextID.Load(),
		Ledger:  s.led.snap(),
		Policy:  s.policyImage,
		Revenue: s.revenue,
	}
	// An in-flight tick's batch is re-queued on restore: its decisions
	// have not been committed, so replaying it is the consistent choice
	// (the cached policy state predates observing it).
	for _, p := range s.deciding {
		snap.Queue = append(snap.Queue, QueuedRequest{ID: p.id, Request: p.req})
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, p := range sh.queue {
			snap.Queue = append(snap.Queue, QueuedRequest{ID: p.id, Request: p.req})
		}
		sh.mu.Unlock()
	}
	sort.Slice(snap.Queue, func(a, b int) bool { return snap.Queue[a].ID < snap.Queue[b].ID })
	s.mu.Unlock()

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&snap); err != nil {
		return fmt.Errorf("serve: encode snapshot: %w", err)
	}
	cSnapshots.Inc()
	return nil
}

// SnapshotFile atomically writes the snapshot to path: temp file in
// the same directory, fsync, rename, directory fsync — a crash at any
// point leaves either the old image or the new one, never a mix.
func (s *Server) SnapshotFile(path string) error {
	return fsx.WriteAtomic(path, 0o644, func(w io.Writer) error {
		return s.Snapshot(w)
	})
}

// Restore loads a snapshot into a freshly constructed server without a
// WAL. It must run before the first Submit or Tick; restoring onto a
// server that has a WAL, has applied a log record or has already
// accepted state is an error — with a WAL the log is the state. The
// snapshot's topology
// fingerprint (network name, link count, slot count) must match the
// server's configuration. Policy state is restored when the configured
// policy matches the snapshot's (same name); a mismatch — the operator
// switched policies across the restart — drops the state and lets the
// new policy rebuild its plan from the re-queued arrivals.
func (s *Server) Restore(r io.Reader) error {
	if s.cfg.WAL != nil {
		return errors.New("serve: restore onto a server with a WAL: with a WAL the log is the state")
	}
	var snap Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("serve: decode snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, this build reads only version %d", snap.Version, SnapshotVersion)
	}
	if snap.Network != s.cfg.Net.Name() || snap.Links != s.cfg.Net.NumLinks() {
		return fmt.Errorf("serve: snapshot is for network %q (%d links), server runs %q (%d links)",
			snap.Network, snap.Links, s.cfg.Net.Name(), s.cfg.Net.NumLinks())
	}
	if snap.Slots != s.cfg.Slots {
		return fmt.Errorf("serve: snapshot has %d slots, server runs %d", snap.Slots, s.cfg.Slots)
	}
	if snap.Epoch < 0 {
		return fmt.Errorf("serve: snapshot epoch %d is negative", snap.Epoch)
	}
	// Snapshot writes the queue sorted by id, every id assigned before
	// nextId; a repeated or out-of-range id would decide one request
	// twice or hand a later Submit an id already queued.
	prev := int64(0)
	for _, q := range snap.Queue {
		if q.ID <= prev || q.ID >= snap.NextID {
			return fmt.Errorf("serve: snapshot queue id %d: ids must be positive, strictly increasing and below nextId %d",
				q.ID, snap.NextID)
		}
		prev = q.ID
		if err := q.Request.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
			return fmt.Errorf("serve: snapshot queue entry %d: %w", q.ID, err)
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasState() || !s.walFrom.IsZero() {
		return fmt.Errorf("serve: restore onto a server that already has state")
	}
	if err := s.led.restore(snap.Ledger); err != nil {
		return err
	}
	s.epoch = snap.Epoch
	s.nextID.Store(snap.NextID)
	s.pruneFrom = snap.NextID
	s.revenue = snap.Revenue
	now := time.Now() // when this process takes the queued arrivals over
	for _, q := range snap.Queue {
		s.adopt(q.ID, q.Request, now)
	}
	if snap.Policy != nil {
		if sp, ok := s.cfg.Policy.(statefulPolicy); ok && snap.Policy.Name == s.cfg.Policy.Name() {
			if err := sp.restorePolicyState(snap.Policy, s.cfg.Net, s.cfg.Slots); err != nil {
				return err
			}
			s.policyImage = snap.Policy
		}
	}
	return nil
}

// RestoreFile is Restore from a file path.
func (s *Server) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return s.Restore(f)
}
