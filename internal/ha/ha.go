// Package ha provides fenced active-passive failover for a durable
// metisd: a leader serves traffic and a hot standby mirrors its
// write-ahead log and applies each round's frames as they land, so its
// state trails the leader's by one round trip plus apply; promotion is
// the replay a restarted leader runs, of whatever the last round had not
// applied, and it mints a strictly larger fencing token that steps the
// old leader down if it ever comes back.
//
// Replication is one pull stream. A round asks the leader's /ha/v1/wal
// for the bytes past the standby's mirror end; the leader serves only
// durable bytes and, when it has none past that offset, waits (bounded)
// for its next group commit, so there is no poll interval. Every
// response carries the leader's fencing token, its durable end and the
// exact number of bytes still behind, so there is no status request.
// The standby mirrors raw segment bytes and applies the mirror's
// complete frames with serve.Server.ApplyLog (a round that ends
// mid-frame or mid-header applies the rest next round; CRCs and tail
// repair re-establish frame integrity). The log is the only state on the
// wire and the token's only home: a leader's first token and every
// promotion's are fence frames, so a standby restarted over its mirror
// still knows them. Asynchrony means a crash can lose the last
// un-replicated suffix of acked work — the design trades that window for
// never blocking the admission hot path on a network round trip. The
// fencing token closes the split-brain hole: every promotion mints
// max(seen)+1, and both sides refuse a stream carrying an older token.
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
	"strconv"
	"sync/atomic"
	"time"

	"metis/internal/serve"
	"metis/internal/wal"
)

const (
	// DefaultFetchChunk is how many raw WAL bytes one fetch moves.
	DefaultFetchChunk = 1 << 20
	// maxChunksPerRound bounds one FetchOnce so a firehose leader cannot
	// pin the standby in a single round forever.
	maxChunksPerRound = 64
	// walWait bounds how long /ha/v1/wal waits for a group commit. It
	// stays below the standby client's timeout, so an idle leader
	// answers with an empty chunk, not an error.
	walWait = time.Second
	// retryDelay spaces RunStandby's rounds after a failed one.
	retryDelay = time.Second
)

// The headers of a /ha/v1/wal response.
const (
	hdrToken   = "X-Metis-Token"       // the leader's fencing token
	hdrDurable = "X-Metis-Durable-End" // its durable end, "seg:pos"
	hdrBehind  = "X-Metis-Behind"      // durable bytes past this chunk
	hdrSegSize = "X-Metis-Seg-Size"    // the served segment's durable size
)

// Status is what a replication round learned of the leader.
type Status struct {
	Token uint64
	// WALEnd is the durable end of the leader's log: every byte at or
	// before it is on disk and safe to mirror.
	WALEnd wal.Offset
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
	return &Node{srv: srv, dir: dir}
}

// NewStandby wraps a standby server (construct it without a WAL, call
// SetStandby, do not Submit/Tick) replicating from the leader at
// primary into dir and applying what it mirrors.
func NewStandby(srv *serve.Server, dir, primary string, client *http.Client) *Node {
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	return &Node{
		srv: srv, dir: dir,
		primary: primary,
		client:  client,
		chunk:   DefaultFetchChunk,
	}
}

// Register adds the leader-side HA endpoints to mux:
//
//	GET  /ha/v1/wal    durable segment bytes from ?seg=&pos= (&max=)
//	POST /ha/v1/fence  {"token": n} — step down if n is newer
func (n *Node) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET /ha/v1/wal", n.handleWAL)
	mux.HandleFunc("POST /ha/v1/fence", n.handleFence)
}

// handleWAL serves raw bytes of one segment, none past the durable end.
// When no durable byte lies past the requested offset it first waits up
// to walWait for the next group commit. The body is binary; every
// response, empty or not, carries the hdr* headers.
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
	limit := DefaultFetchChunk
	if v := q.Get("max"); v != "" {
		if m, err := strconv.Atoi(v); err == nil && m > 0 && m <= 8*DefaultFetchChunk {
			limit = m
		}
	}
	from := wal.Offset{Seg: seq, Pos: pos}
	ctx, cancel := context.WithTimeout(r.Context(), walWait)
	end := l.WaitPast(ctx, from)
	cancel()
	data, size, behind, err := wal.ReadAt(l.Dir(), from, limit, end)
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
	h.Set(hdrToken, strconv.FormatUint(n.srv.Token(), 10))
	h.Set(hdrDurable, end.String())
	h.Set(hdrBehind, strconv.FormatInt(behind, 10))
	h.Set(hdrSegSize, strconv.FormatInt(size, 10))
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
	writeJSON(w, http.StatusOK, map[string]string{"role": n.srv.Role()})
}

// LagBytes is how many durable bytes of the leader's log the standby's
// last successful fetch left behind, as the leader counted them.
func (n *Node) LagBytes() int64 { return n.lag.Load() }

// FetchOnce runs one replication round: it mirrors chunks until it
// reaches the durable end the leader reports (at most maxChunksPerRound
// of them), refusing any response whose token is older than one already
// followed, then applies the mirror's new complete frames to the
// standby's server. It returns what the last response said of the
// leader.
func (n *Node) FetchOnce(ctx context.Context) (Status, error) {
	st, err := n.mirrorWAL(ctx)
	if err == nil {
		cFetches.Inc()
		if _, err = n.srv.ApplyLog(n.dir); err != nil {
			err = fmt.Errorf("ha: apply mirrored wal: %w", err)
		}
	}
	if err != nil {
		cFetchErrors.Inc()
	}
	return st, err
}

// RunStandby runs replication rounds back to back until ctx is
// cancelled or the node promotes: a round's first fetch waits at the
// leader for new durable bytes, so an idle pair makes one request per
// walWait. A failed round is logged and retried after retryDelay.
func (n *Node) RunStandby(ctx context.Context) {
	for ctx.Err() == nil && !n.promoted.Load() {
		if _, err := n.FetchOnce(ctx); err != nil && ctx.Err() == nil {
			fmt.Fprintf(os.Stderr, "ha: standby fetch: %v\n", err)
			select {
			case <-ctx.Done():
			case <-time.After(retryDelay):
			}
		}
	}
}

// mirrorWAL extends the local segment mirror toward the leader's
// durable end. Chunks land mid-frame without harm: ApplyLog stops at
// the last complete frame, and promotion re-opens the log with CRC
// checks and tail repair.
func (n *Node) mirrorWAL(ctx context.Context) (Status, error) {
	var st Status
	local, err := wal.MirrorEnd(n.dir)
	if err != nil {
		return st, err
	}
	if local.IsZero() {
		local = wal.Offset{Seg: 1, Pos: 0}
	}
	for i := 0; i < maxChunksPerRound; i++ {
		c, err := n.fetchWAL(ctx, local)
		if err != nil {
			return st, err
		}
		st = c.Status
		if seen := n.maxSeen.Load(); st.Token < seen {
			cStaleLeader.Inc()
			return st, fmt.Errorf("ha: leader token %d is older than followed token %d (stale leader)", st.Token, seen)
		}
		n.maxSeen.Store(st.Token)
		if len(c.data) > 0 {
			if err := wal.MirrorAppend(n.dir, local.Seg, local.Pos, c.data); err != nil {
				return st, err
			}
			local.Pos += int64(len(c.data))
		}
		n.lag.Store(c.behind)
		gLagBytes.Set(c.behind)
		if c.behind == 0 {
			break
		}
		if local.Pos >= c.size && local.Seg < st.WALEnd.Seg {
			local = wal.Offset{Seg: local.Seg + 1, Pos: 0}
		}
	}
	return st, nil
}

// chunk is one /ha/v1/wal response.
type chunk struct {
	Status
	data   []byte
	size   int64 // the served segment's durable size
	behind int64 // durable bytes past data
}

func (n *Node) fetchWAL(ctx context.Context, at wal.Offset) (chunk, error) {
	var c chunk
	url := fmt.Sprintf("%s/ha/v1/wal?seg=%d&pos=%d&max=%d", n.primary, at.Seg, at.Pos, n.chunk)
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		return c, err
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return c, fmt.Errorf("ha: wal fetch at %v: HTTP %d", at, resp.StatusCode)
	}
	h := resp.Header
	_, err1 := fmt.Sscan(h.Get(hdrToken), &c.Token)
	_, err2 := fmt.Sscanf(h.Get(hdrDurable), "%d:%d", &c.WALEnd.Seg, &c.WALEnd.Pos)
	_, err3 := fmt.Sscan(h.Get(hdrBehind), &c.behind)
	_, err4 := fmt.Sscan(h.Get(hdrSegSize), &c.size)
	if err := errors.Join(err1, err2, err3, err4); err != nil {
		return c, fmt.Errorf("ha: wal fetch at %v: bad headers: %w", at, err)
	}
	c.data, err = io.ReadAll(resp.Body)
	return c, err
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
// mint a fencing token strictly larger than any followed or logged, log
// it as a fence frame, start serving, and best-effort fence the old
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

	// The server's token is the largest fence frame it has applied.
	token := max(n.maxSeen.Load(), n.srv.Token()) + 1
	if err := serve.AppendFence(l, token); err != nil {
		return rep, fmt.Errorf("ha: promote: log token: %w", err)
	}
	n.srv.SetToken(token)
	n.srv.SetLeader()
	n.promoted.Store(true)
	rep.Token = token
	cPromotions.Inc()

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

// InitToken gives a leader recovered from its own log (RecoverWAL) a
// fencing token: when the log holds no fence frame, it logs token 1, so
// the token reaches a standby in the stream it fences.
func InitToken(srv *serve.Server) error {
	if srv.Token() != 0 {
		return nil
	}
	if err := serve.AppendFence(srv.WAL(), 1); err != nil {
		return fmt.Errorf("ha: log token 1: %w", err)
	}
	srv.SetToken(1)
	return nil
}

// LoadOrInitToken returns the largest fencing token in dir's log, or 1
// when the log holds none: the token InitToken would log.
func LoadOrInitToken(dir string) (uint64, error) {
	tok, err := serve.LoggedToken(dir)
	if err != nil {
		return 0, err
	}
	return max(tok, 1), nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
