// Package metis is a pure-Go implementation of Metis, the service
// profit maximization framework for geo-distributed clouds from
// "Towards Maximal Service Profit in Geo-Distributed Clouds"
// (ICDCS 2019).
//
// A cloud provider leases inter-datacenter bandwidth from ISPs at
// per-link unit prices and receives bandwidth-reservation requests,
// each worth a fixed value if served. Serving everything is usually not
// profit-maximal; Metis selects which requests to accept and how to
// route them so that profit = revenue − bandwidth cost is maximized.
//
// The package exposes:
//
//   - reference topologies (B4, SubB4) and custom networks (NewNetwork),
//   - a reproducible synthetic workload generator (GenerateWorkload),
//   - the Metis framework itself (Solve), alternating the MAA and TAA
//     approximation algorithms,
//   - the individual solvers (SolveMAA for RL-SPM, SolveTAA for
//     BL-SPM), exact anytime references (OptSPM, OptRLSPM), and the
//     evaluation baselines (MinCost, Amoeba, EcoFlow).
//
// Quick start:
//
//	net := metis.B4()
//	reqs, _ := metis.GenerateWorkload(net, 300, 42)
//	inst, _ := metis.NewInstance(net, metis.DefaultSlots, reqs, 3)
//	res, _ := metis.Solve(inst, metis.Config{})
//	fmt.Println(res.Profit, res.Schedule.NumAccepted())
package metis

import (
	"context"
	"time"

	"metis/internal/baseline"
	"metis/internal/core"
	"metis/internal/demand"
	"metis/internal/maa"
	"metis/internal/opt"
	"metis/internal/sched"
	"metis/internal/solvectx"
	"metis/internal/stats"
	"metis/internal/taa"
	"metis/internal/wan"
)

// Typed reasons a context-aware solve stopped early; match them with
// errors.Is. ErrCanceled also matches context.Canceled and ErrDeadline
// context.DeadlineExceeded, so callers can test either way.
var (
	// ErrCanceled reports that the context was canceled.
	ErrCanceled = solvectx.ErrCanceled
	// ErrDeadline reports that the context's deadline passed.
	ErrDeadline = solvectx.ErrDeadline
)

// Re-exported model types. These aliases are the public names of the
// library's core vocabulary.
type (
	// Network is an Inter-DC WAN topology with per-link unit prices.
	Network = wan.Network
	// DC is a data center node.
	DC = wan.DC
	// Link is a directed priced link.
	Link = wan.Link
	// Path is a route through the WAN.
	Path = wan.Path
	// Region is a pricing region.
	Region = wan.Region
	// Request is a bandwidth-reservation request (the paper's
	// six-tuple).
	Request = demand.Request
	// GeneratorConfig parameterizes the synthetic workload generator.
	GeneratorConfig = demand.GeneratorConfig
	// Instance is a scheduling problem: network + cycle + requests +
	// candidate paths.
	Instance = sched.Instance
	// Schedule assigns requests to paths (or declines them) and carries
	// all profit accounting.
	Schedule = sched.Schedule
	// UtilizationStats summarizes link utilization.
	UtilizationStats = sched.UtilizationStats
	// Config parameterizes the Metis framework (θ, τ, MAA roundings).
	Config = core.Config
	// Result is the outcome of a Metis run.
	Result = core.Result
	// RoundStats records one alternation round.
	RoundStats = core.RoundStats
	// MAAResult is the outcome of the RL-SPM solver.
	MAAResult = maa.Result
	// TAAResult is the outcome of the BL-SPM solver.
	TAAResult = taa.Result
	// OptResult is the outcome of an exact reference solver.
	OptResult = opt.Result
	// EcoFlowResult is the outcome of the EcoFlow baseline.
	EcoFlowResult = baseline.EcoFlowResult
	// ValidationError is the typed rejection of a malformed request or
	// instance (match with errors.As). Request.Validate and
	// Instance.Validate return it; metisd's ingest surfaces its Field
	// and Msg to clients.
	ValidationError = demand.ValidationError
)

// Re-exported constants.
const (
	// DefaultSlots is the billing-cycle length (12 monthly slots).
	DefaultSlots = demand.DefaultSlots
	// DefaultPathsPerRequest is the default candidate path-set size.
	DefaultPathsPerRequest = sched.DefaultPathsPerRequest
	// Declined marks an unserved request in a Schedule.
	Declined = sched.Declined
)

// Pricing regions (Cloudflare relative prices; Europe = 1).
const (
	RegionNorthAmerica = wan.RegionNorthAmerica
	RegionEurope       = wan.RegionEurope
	RegionAsia         = wan.RegionAsia
	RegionSouthAmerica = wan.RegionSouthAmerica
	RegionOceania      = wan.RegionOceania
)

// B4 returns the 12-DC / 19-bidirectional-link Inter-DC WAN used in the
// paper's evaluation.
func B4() *Network { return wan.B4() }

// SubB4 returns the paper's 6-DC / 7-link small-scale network.
func SubB4() *Network { return wan.SubB4() }

// NewNetwork builds a custom network from data centers and directed
// priced links.
func NewNetwork(name string, dcs []DC, links []Link) (*Network, error) {
	return wan.NewNetwork(name, dcs, links)
}

// GenerateWorkload produces k synthetic requests on net with the
// paper-default distributions (Poisson arrivals over 12 slots, uniform
// 0.1–5 Gbps rates, price-linked values), reproducibly from seed.
func GenerateWorkload(net *Network, k int, seed int64) ([]Request, error) {
	gen, err := demand.NewGenerator(net, demand.DefaultGeneratorConfig(seed))
	if err != nil {
		return nil, err
	}
	return gen.GenerateN(k)
}

// GenerateWorkloadConfig is GenerateWorkload with a custom generator
// configuration.
func GenerateWorkloadConfig(net *Network, k int, cfg GeneratorConfig) ([]Request, error) {
	gen, err := demand.NewGenerator(net, cfg)
	if err != nil {
		return nil, err
	}
	return gen.GenerateN(k)
}

// NewInstance validates the requests and enumerates up to
// pathsPerRequest cheapest candidate paths for each.
func NewInstance(net *Network, slots int, reqs []Request, pathsPerRequest int) (*Instance, error) {
	return sched.NewInstance(net, slots, reqs, pathsPerRequest)
}

// Solve runs the Metis framework: θ rounds alternating the RL-SPM
// solver (MAA), the BW Limiter (rule τ), and the BL-SPM solver (TAA),
// returning the most profitable schedule observed.
func Solve(inst *Instance, cfg Config) (*Result, error) {
	return core.Solve(inst, cfg)
}

// SolveCtx is Solve under a context deadline or cancellation. A nil (or
// never-expiring) ctx behaves exactly like Solve. When ctx expires
// before any work has run, SolveCtx returns an error matching
// ErrCanceled or ErrDeadline; when it expires mid-run, the alternation
// stops at the next checkpoint and the best schedule found so far is
// returned with Result.Degraded set and Result.Cause holding the typed
// reason — degradation is a successful (shorter) solve, not an error.
func SolveCtx(ctx context.Context, inst *Instance, cfg Config) (*Result, error) {
	return core.SolveCtx(ctx, inst, cfg)
}

// SolveMAA runs the Multistage Approximation Algorithm on RL-SPM:
// serve every request of inst at (approximately) minimal bandwidth
// cost. rounds is the number of randomized roundings (best one wins;
// use 1 for the paper's algorithm) and seed drives the rounding.
func SolveMAA(inst *Instance, rounds int, seed int64) (*MAAResult, error) {
	return maa.Solve(inst, maa.Options{Rounds: rounds, RNG: stats.NewRNG(seed)})
}

// SolveTAA runs the Tree-based Approximation Algorithm on BL-SPM:
// maximize revenue under fixed integer link capacities (indexed by link
// id). The returned schedule never violates the capacities.
func SolveTAA(inst *Instance, caps []int) (*TAAResult, error) {
	return taa.Solve(inst, caps, taa.Options{})
}

// OptSPM computes the exact (anytime, time-limited) OPT(SPM) reference:
// the profit-maximal acceptance, routing and bandwidth purchase.
func OptSPM(inst *Instance, timeLimit time.Duration) (*OptResult, error) {
	return opt.SPM(inst, timeLimit)
}

// OptRLSPM computes the exact (anytime, time-limited) OPT(RL-SPM)
// reference: the cost-minimal schedule serving every request.
func OptRLSPM(inst *Instance, timeLimit time.Duration) (*OptResult, error) {
	return opt.RLSPM(inst, timeLimit)
}

// MinCost is the fixed-rule baseline: every request on its min-price
// path.
func MinCost(inst *Instance) (*Schedule, error) { return baseline.MinCost(inst) }

// Amoeba is the online-admission baseline under fixed capacities.
func Amoeba(inst *Instance, caps []int) (*Schedule, error) { return baseline.Amoeba(inst, caps) }

// EcoFlow is the economical greedy multipath baseline.
func EcoFlow(inst *Instance) (*EcoFlowResult, error) { return baseline.EcoFlow(inst) }
