package spm

import "metis/internal/obs"

// Session counters, flushed at solve boundaries.
var (
	cSessionSolves = obs.NewCounter("spm.session.solves",
		"BLSession.SolveSubset calls that returned a relaxation; the denominator of spm.session.cold_resolves")
	cSessionColdResolves = obs.NewCounter("spm.session.cold_resolves",
		"BLSession warm solves whose optimum stayed vertex-ambiguous despite the tie-break and re-solved cold to restore exact rebuild parity")
)
