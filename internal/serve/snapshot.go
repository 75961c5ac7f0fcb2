package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"metis/internal/demand"
	"metis/internal/fsx"
	"metis/internal/wal"
)

// SnapshotVersion is the wire version of the snapshot format. Version 2
// added the metis policies' cycle state (PolicyState); version 3 added
// the HA fencing token and the WAL offset the image covers. Restore
// still accepts versions 1 and 2, which simply carry no such state.
const SnapshotVersion = 3

// Snapshot is the JSON crash-recovery image of a Server: the committed
// ledger plus every queued-but-undecided arrival, with enough daemon
// time (epoch, next id) to resume exactly where the process stopped,
// and — for metis-incremental — the cycle state needed to rebuild the
// persistent replan model deterministically. Decision history is
// observability, not ledger state, and is not persisted.
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
	// committed tick (nil for stateless policies and v1 images).
	Policy *PolicyState `json:"policy,omitempty"`
	// Token is the fencing token of the leader that wrote the image; a
	// standby refuses images from a leader older than one it has
	// already followed.
	Token uint64 `json:"token,omitempty"`
	// WAL is the log offset this image covers: every record at or
	// before it is reflected in the image, every record after it is
	// not. Recovery replays the log from here.
	WAL *wal.Offset `json:"wal,omitempty"`
	// Revenue is the cycle's accepted value so far; with a WAL it must
	// survive restore so replay accumulates on top of the right base.
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
		Token:   s.token.Load(),
		Revenue: s.revenue,
	}
	// The WAL offset and the queue scan are captured under the walGate
	// write barrier: a submit holds the read side across its append +
	// enqueue, so the offset recorded here covers exactly the arrivals
	// the scan sees — no acked arrival can fall between the image and
	// its replay. Tick records serialize via s.mu, already held. Lock
	// order: s.mu → walGate (submits never take s.mu).
	if s.cfg.WAL != nil {
		s.walGate.Lock()
		off := s.cfg.WAL.AppendedEnd()
		snap.WAL = &off
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
	if s.cfg.WAL != nil {
		s.walGate.Unlock()
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

// Restore loads a snapshot into a freshly constructed server. It must
// run before the first Submit or Tick; restoring onto a server that has
// already accepted state is an error. The snapshot's topology
// fingerprint (network name, link count, slot count) must match the
// server's configuration. Policy state is restored when the configured
// policy matches the snapshot's (same name); a mismatch — the operator
// switched policies across the restart — drops the state and lets the
// new policy rebuild its plan from the re-queued arrivals.
func (s *Server) Restore(r io.Reader) error {
	var snap Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap); err != nil {
		return fmt.Errorf("serve: decode snapshot: %w", err)
	}
	if snap.Version < 1 || snap.Version > SnapshotVersion {
		return fmt.Errorf("serve: snapshot version %d, want 1..%d", snap.Version, SnapshotVersion)
	}
	if snap.Network != s.cfg.Net.Name() || snap.Links != s.cfg.Net.NumLinks() {
		return fmt.Errorf("serve: snapshot is for network %q (%d links), server runs %q (%d links)",
			snap.Network, snap.Links, s.cfg.Net.Name(), s.cfg.Net.NumLinks())
	}
	if snap.Slots != s.cfg.Slots {
		return fmt.Errorf("serve: snapshot has %d slots, server runs %d", snap.Slots, s.cfg.Slots)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.epoch != 0 || s.nextID.Load() != 1 || s.queueDepth.Load() != 0 {
		return fmt.Errorf("serve: restore onto a server that already has state")
	}
	if err := s.led.restore(snap.Ledger); err != nil {
		return err
	}
	s.epoch = snap.Epoch
	s.nextID.Store(snap.NextID)
	s.pruneFrom = snap.NextID
	s.revenue = snap.Revenue
	s.token.Store(snap.Token)
	if snap.WAL != nil {
		s.walFrom = *snap.WAL
	}
	for _, q := range snap.Queue {
		if err := q.Request.Validate(s.cfg.Net, s.cfg.Slots); err != nil {
			return fmt.Errorf("serve: snapshot queue entry %d: %w", q.ID, err)
		}
		sh := &s.shards[int(q.ID)%intakeShards]
		sh.queue = append(sh.queue, pending{id: q.ID, req: q.Request})
		ds := s.dshard(q.ID)
		ds.m[q.ID] = &Decision{ID: q.ID, Status: StatusQueued, Request: q.Request}
		if q.ID < s.pruneFrom {
			s.pruneFrom = q.ID
		}
	}
	s.queueDepth.Store(int64(len(snap.Queue)))
	gQueueDepth.Set(int64(len(snap.Queue)))
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
