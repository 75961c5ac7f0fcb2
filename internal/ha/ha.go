// Package ha provides fenced active-passive failover for a durable
// metisd: a leader serves traffic and a hot standby mirrors its
// write-ahead log and applies each round's frames as they land, so its
// state trails the leader's by at most one round; promotion is the
// replay a restarted leader runs, of whatever the last round had not
// applied, and it mints a strictly larger fencing token that steps the
// old leader down if it ever comes back.
//
// Replication is pull-based and asynchronous: the standby polls the
// leader's /ha/v1 endpoints, mirrors raw WAL segment bytes and applies
// the mirror's complete frames with serve.Server.ApplyLog (a round that
// ends mid-frame or mid-header applies the rest next round; CRCs and
// tail repair re-establish frame integrity). The log is the only state
// on the wire. Asynchrony means a crash can lose the last un-replicated
// suffix of acked work — the design trades that bounded window for
// never blocking the admission hot path on a network round trip. The
// fencing token closes the split-brain hole: every promotion mints
// max(seen)+1, the token rides in the log itself, and both sides refuse
// a stream carrying an older token.
package ha

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"metis/internal/fsx"
	"metis/internal/serve"
	"metis/internal/wal"
)

// Defaults for the standby's replication loop.
const (
	// DefaultFetchChunk is how many raw WAL bytes one fetch moves.
	DefaultFetchChunk = 1 << 20
	// DefaultFetchEvery is the poll interval of RunStandby.
	DefaultFetchEvery = 200 * time.Millisecond
	// maxChunksPerRound bounds one FetchOnce so a firehose leader cannot
	// pin the standby in a single round forever.
	maxChunksPerRound = 64
)

// tokenName is the fencing-token file, kept next to the WAL segments
// (the wal package ignores non-segment files).
const tokenName = "fence.json"

// Status is the leader's /ha/v1/status payload.
type Status struct {
	Role  string `json:"role"`
	Token uint64 `json:"token"`
	Epoch int    `json:"epoch"`
	// WALEnd is the durable end of the leader's log: every byte at or
	// before it is on disk and safe to mirror.
	WALEnd wal.Offset `json:"walEnd"`
}

// Node is one HA participant wrapping a serve.Server. A leader node
// serves the /ha/v1 endpoints; a standby node runs the replication
// loop and can promote.
type Node struct {
	srv *serve.Server
	dir string

	// Standby state.
	primary  string
	client   *http.Client
	chunk    int
	maxSeen  atomic.Uint64 // largest leader fencing token followed
	lag      atomic.Int64
	promoted atomic.Bool
}

// NewLeader wraps a serving leader whose WAL lives in dir.
func NewLeader(srv *serve.Server, dir string) *Node {
	gRole.Set(0)
	return &Node{srv: srv, dir: dir}
}

// NewStandby wraps a standby server (construct it without a WAL, call
// SetStandby, do not Submit/Tick) replicating from the leader at
// primary into dir and applying what it mirrors.
func NewStandby(srv *serve.Server, dir, primary string, client *http.Client) *Node {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	gRole.Set(1)
	return &Node{
		srv: srv, dir: dir,
		primary: primary,
		client:  client,
		chunk:   DefaultFetchChunk,
	}
}

// Register adds the leader-side HA endpoints to mux:
//
//	GET  /ha/v1/status  role, fencing token, durable WAL end
//	GET  /ha/v1/wal     raw segment bytes (?seg=&pos=&max=)
//	POST /ha/v1/fence   {"token": n} — step down if n is newer
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /ha/v1/status", n.handleStatus)
	mux.HandleFunc("GET /ha/v1/wal", n.handleWAL)
	mux.HandleFunc("POST /ha/v1/fence", n.handleFence)
}

func (n *Node) status() Status {
	st := Status{Role: n.srv.Role(), Token: n.srv.Token()}
	st.Epoch = n.srv.Epoch()
	if w := n.srv.WAL(); w != nil {
		st.WALEnd = w.DurableEnd()
	}
	return st
}

func (n *Node) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, n.status())
}

// handleWAL serves raw bytes of one segment file. The response body is
// binary; X-Metis-Seg-Size carries the segment's current size and
// X-Metis-Has-Next whether a later segment exists.
func (n *Node) handleWAL(w http.ResponseWriter, r *http.Request) {
	l := n.srv.WAL()
	if l == nil {
		writeJSON(w, http.StatusConflict, map[string]string{"error": "leader has no WAL"})
		return
	}
	q := r.URL.Query()
	seq, err1 := strconv.ParseUint(q.Get("seg"), 10, 64)
	pos, err2 := strconv.ParseInt(q.Get("pos"), 10, 64)
	if err1 != nil || err2 != nil || seq == 0 || pos < 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "need seg>=1 and pos>=0"})
		return
	}
	max := DefaultFetchChunk
	if v := q.Get("max"); v != "" {
		if m, err := strconv.Atoi(v); err == nil && m > 0 && m <= 8*DefaultFetchChunk {
			max = m
		}
	}
	data, size, hasNext, err := wal.ReadAt(l.Dir(), seq, pos, max)
	if err != nil {
		code := http.StatusInternalServerError
		if os.IsNotExist(err) {
			code = http.StatusNotFound
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Metis-Seg-Size", strconv.FormatInt(size, 10))
	h.Set("X-Metis-Has-Next", boolHeader(hasNext))
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// handleFence steps the server down when presented a strictly newer
// fencing token. An equal or older token is a stale ex-leader (or a
// replayed request) and gets 409.
func (n *Node) handleFence(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Token uint64 `json:"token"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "decode: " + err.Error()})
		return
	}
	if body.Token <= n.srv.Token() {
		writeJSON(w, http.StatusConflict, map[string]string{
			"error": fmt.Sprintf("token %d is not newer than %d", body.Token, n.srv.Token()),
		})
		return
	}
	n.srv.Fence()
	gRole.Set(2)
	writeJSON(w, http.StatusOK, map[string]string{"role": n.srv.Role()})
}

// LagBytes is the standby's replication lag after its last successful
// round. Across a segment boundary the figure is an estimate (it
// assumes default-sized segments).
func (n *Node) LagBytes() int64 { return n.lag.Load() }

// FetchOnce runs one replication round: check the leader's token,
// mirror new WAL bytes, and apply the mirror's new complete frames to
// the standby's server. It returns the leader's status.
func (n *Node) FetchOnce(ctx context.Context) (Status, error) {
	st, err := n.fetchStatus(ctx)
	if err != nil {
		cFetchErrors.Inc()
		return st, err
	}
	if seen := n.maxSeen.Load(); st.Token < seen {
		cStaleLeader.Inc()
		cFetchErrors.Inc()
		return st, fmt.Errorf("ha: leader token %d is older than followed token %d (stale leader)", st.Token, seen)
	}
	n.maxSeen.Store(st.Token)
	cFetches.Inc()
	if err := n.mirrorWAL(ctx, st); err != nil {
		cFetchErrors.Inc()
		return st, err
	}
	if _, err := n.srv.ApplyLog(n.dir); err != nil {
		cFetchErrors.Inc()
		return st, fmt.Errorf("ha: apply mirrored wal: %w", err)
	}
	return st, nil
}

// RunStandby replicates until ctx is cancelled or the node promotes.
// Transient errors are logged and retried on the next round.
func (n *Node) RunStandby(ctx context.Context) {
	t := time.NewTicker(DefaultFetchEvery)
	defer t.Stop()
	for {
		if _, err := n.FetchOnce(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "ha: standby fetch: %v\n", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if n.promoted.Load() {
				return
			}
		}
	}
}

func (n *Node) fetchStatus(ctx context.Context) (Status, error) {
	var st Status
	req, err := http.NewRequestWithContext(ctx, "GET", n.primary+"/ha/v1/status", nil)
	if err != nil {
		return st, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("ha: status: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("ha: status decode: %w", err)
	}
	return st, nil
}

// mirrorWAL extends the local segment mirror toward the leader's
// durable end. Chunks land mid-frame without harm: ApplyLog stops at
// the last complete frame, and promotion re-opens the log with CRC
// checks and tail repair.
func (n *Node) mirrorWAL(ctx context.Context, st Status) error {
	local, err := wal.MirrorEnd(n.dir)
	if err != nil {
		return err
	}
	if local.IsZero() {
		local = wal.Offset{Seg: 1, Pos: 0}
	}
	for i := 0; i < maxChunksPerRound; i++ {
		data, size, hasNext, err := n.fetchWAL(ctx, local.Seg, local.Pos)
		if err != nil {
			return err
		}
		if len(data) > 0 {
			if err := wal.MirrorAppend(n.dir, local.Seg, local.Pos, data); err != nil {
				return err
			}
			local.Pos += int64(len(data))
		}
		if local.Pos >= size && hasNext {
			local = wal.Offset{Seg: local.Seg + 1, Pos: 0}
			continue
		}
		if len(data) == 0 {
			break
		}
	}
	n.lag.Store(lagBytes(local, st.WALEnd))
	gLagBytes.Set(n.lag.Load())
	return nil
}

// lagBytes estimates how far local trails leader. Within one segment it
// is exact; across segments it assumes default-sized segments.
func lagBytes(local, leader wal.Offset) int64 {
	if !leader.After(local) {
		return 0
	}
	if leader.Seg == local.Seg {
		return leader.Pos - local.Pos
	}
	d := leader.Pos + (wal.DefaultSegmentBytes - local.Pos)
	if gap := int64(leader.Seg-local.Seg) - 1; gap > 0 {
		d += gap * wal.DefaultSegmentBytes
	}
	return d
}

func (n *Node) fetchWAL(ctx context.Context, seq uint64, pos int64) (data []byte, size int64, hasNext bool, err error) {
	url := fmt.Sprintf("%s/ha/v1/wal?seg=%d&pos=%d&max=%d", n.primary, seq, pos, n.chunk)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return nil, 0, false, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, 0, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, false, fmt.Errorf("ha: wal fetch seg %d pos %d: HTTP %d", seq, pos, resp.StatusCode)
	}
	size, err = strconv.ParseInt(resp.Header.Get("X-Metis-Seg-Size"), 10, 64)
	if err != nil {
		return nil, 0, false, fmt.Errorf("ha: wal fetch: bad size header: %w", err)
	}
	hasNext = resp.Header.Get("X-Metis-Has-Next") == "1"
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, false, err
	}
	return data, size, hasNext, nil
}

// PromoteReport summarizes one promotion.
type PromoteReport struct {
	Token uint64 `json:"token"`
	// Recovered is the promotion's replay: what the standby's last
	// replication round had not applied.
	Recovered serve.RecoverStats `json:"recovered"`
	OldFenced bool               `json:"oldLeaderFenced"`
}

// Promote turns the standby into the leader with the calls a restarted
// leader makes: open the mirrored log (tail repair), attach it, replay
// what the replication rounds have not applied yet (RecoverWAL), then
// mint a fencing token strictly larger than any followed or logged,
// persist and log it, start serving, and best-effort fence the old
// primary. The wrapped server must still be in its standby state
// (never submitted to or ticked).
func (n *Node) Promote(ctx context.Context) (PromoteReport, error) {
	var rep PromoteReport
	l, err := wal.Open(n.dir, wal.Options{})
	if err != nil {
		return rep, fmt.Errorf("ha: promote: open mirrored wal: %w", err)
	}
	if err := n.srv.SetWAL(l); err != nil {
		l.Close()
		return rep, err
	}
	st, err := n.srv.RecoverWAL()
	rep.Recovered = st
	if err != nil {
		return rep, fmt.Errorf("ha: promote: wal replay: %w", err)
	}

	token := n.maxSeen.Load()
	if st.MaxToken > token {
		token = st.MaxToken
	}
	if t := n.srv.Token(); t > token {
		token = t
	}
	token++
	if err := SaveToken(n.dir, token); err != nil {
		return rep, fmt.Errorf("ha: promote: persist token: %w", err)
	}
	if err := serve.AppendFence(l, token); err != nil {
		return rep, fmt.Errorf("ha: promote: log token: %w", err)
	}
	n.srv.SetToken(token)
	n.srv.SetLeader()
	n.promoted.Store(true)
	rep.Token = token
	cPromotions.Inc()
	gRole.Set(0)

	// Best-effort: tell the old primary it is fenced. It is usually
	// dead (that is why we promoted); if it is merely partitioned it
	// will also reject its next standby-stream consumers by token.
	if n.primary != "" {
		rep.OldFenced = n.fencePrimary(ctx, token)
	}
	return rep, nil
}

func (n *Node) fencePrimary(ctx context.Context, token uint64) bool {
	body, _ := json.Marshal(map[string]uint64{"token": token})
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "POST", n.primary+"/ha/v1/fence", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := n.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// LoadOrInitToken returns the persisted fencing token in dir, minting
// (and persisting) token 1 when none exists — a fresh leader's state
// always carries a token so its first standby can detect staleness.
func LoadOrInitToken(dir string) (uint64, error) {
	tok, err := LoadToken(dir)
	if err != nil {
		return 0, err
	}
	if tok != 0 {
		return tok, nil
	}
	if err := SaveToken(dir, 1); err != nil {
		return 0, err
	}
	return 1, nil
}

// LoadToken reads the persisted fencing token (0 when absent).
func LoadToken(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, tokenName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, nil
		}
		return 0, err
	}
	var v struct {
		Token uint64 `json:"token"`
	}
	if err := json.Unmarshal(b, &v); err != nil {
		return 0, fmt.Errorf("ha: %s: %w", tokenName, err)
	}
	return v.Token, nil
}

// SaveToken durably persists the fencing token in dir.
func SaveToken(dir string, token uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Token uint64 `json:"token"`
	}{token})
	if err != nil {
		return err
	}
	return fsx.WriteFileAtomic(filepath.Join(dir, tokenName), b, 0o644)
}

func boolHeader(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
