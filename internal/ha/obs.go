package ha

import "metis/internal/obs"

// HA instruments, in the process-wide obs registry so metisd's
// /metrics endpoint exposes them next to the wal and solver counters.
var (
	gLagBytes    = obs.NewGauge("ha.lag_bytes", "durable bytes of the leader's WAL the standby's last fetch left behind, as the leader counted them")
	cPromotions  = obs.NewCounter("ha.promotions", "standby promotions to leader")
	cFetches     = obs.NewCounter("ha.fetches", "standby replication rounds against the leader")
	cFetchErrors = obs.NewCounter("ha.fetch_errors", "failed standby replication rounds")
	cStaleLeader = obs.NewCounter("ha.stale_leader_rejects", "leader responses rejected for carrying an old fencing token")
)
