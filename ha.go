package metis

import (
	"metis/internal/ha"
	"metis/internal/serve"
	"metis/internal/wal"
)

// Durability and failover re-exports: the write-ahead log (see
// internal/wal) and the fenced active-passive HA layer (see
// internal/ha). A WAL-backed daemon appends every acked arrival and
// every committed epoch before acknowledging; a hot standby mirrors the
// log and applies it as it lands, and promotes into a bit-identical
// leader carrying a strictly newer fencing token.
type (
	// WAL is the length+CRC-framed, fsync-batched append log.
	WAL = wal.Log
	// WALOptions parameterize OpenWAL.
	WALOptions = wal.Options
	// WALOffset addresses a byte position in the segmented log.
	WALOffset = wal.Offset
	// HANode is one failover participant (leader or standby).
	HANode = ha.Node
	// HAStatus is what a replication round learned of the leader.
	HAStatus = ha.Status
	// HAPromoteReport summarizes one standby promotion.
	HAPromoteReport = ha.PromoteReport
	// ServeRecoverStats summarizes one WAL replay into a server.
	ServeRecoverStats = serve.RecoverStats
)

// Server roles (ServeStats.Role, ServeHealth.Role).
const (
	RoleLeader  = serve.RoleLeader
	RoleStandby = serve.RoleStandby
	RoleFenced  = serve.RoleFenced
)

// Typed Submit failures of the HA roles; match with errors.Is.
var (
	// ErrStandby reports a submit against an unpromoted standby (503).
	ErrStandby = serve.ErrStandby
	// ErrFenced reports a submit against a fenced ex-leader (503).
	ErrFenced = serve.ErrFenced
)

// OpenWAL opens (or creates) the write-ahead log in dir, repairing a
// torn tail left by a crash.
func OpenWAL(dir string, opt WALOptions) (*WAL, error) { return wal.Open(dir, opt) }

// NewHALeader wraps a serving leader whose WAL lives in dir.
func NewHALeader(srv *Server, dir string) *HANode { return ha.NewLeader(srv, dir) }

// NewHAStandby wraps a standby server replicating from the leader at
// primary into dir (nil client uses a default with timeouts).
func NewHAStandby(srv *Server, dir, primary string) *HANode {
	return ha.NewStandby(srv, dir, primary, nil)
}

// InitFencingToken gives a leader recovered from its own log
// (RecoverWAL) a fencing token: when the log holds no fence frame, it
// logs token 1, so a standby mirrors the token with the state.
func InitFencingToken(srv *Server) error { return ha.InitToken(srv) }
