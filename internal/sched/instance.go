// Package sched defines scheduling instances (network + billing cycle +
// requests + candidate path sets) and schedules (request→path
// assignments) together with all profit accounting: per-(link, slot)
// loads, charged bandwidth, service cost, service revenue, service
// profit, link utilization, and capacity-feasibility checking.
package sched

import (
	"fmt"

	"metis/internal/demand"
	"metis/internal/wan"
)

// DefaultPathsPerRequest is the default size of each request's candidate
// path set (k in the k-cheapest-paths enumeration).
const DefaultPathsPerRequest = 3

// Instance is one SPM problem instance: the network, the billing cycle
// length, the requests of the cycle, and each request's candidate paths.
type Instance struct {
	net   *wan.Network
	slots int
	reqs  []demand.Request
	paths [][]wan.Path // paths[i] = candidate paths of reqs[i]
}

// NewInstance builds an instance, enumerating up to pathsPerRequest
// cheapest candidate paths for every request. It validates all requests.
func NewInstance(net *wan.Network, slots int, reqs []demand.Request, pathsPerRequest int) (*Instance, error) {
	if slots <= 0 {
		return nil, fmt.Errorf("sched: slots %d must be positive", slots)
	}
	if pathsPerRequest <= 0 {
		return nil, fmt.Errorf("sched: pathsPerRequest %d must be positive", pathsPerRequest)
	}
	if err := demand.ValidateAll(reqs, net, slots); err != nil {
		return nil, err
	}

	// Path sets depend only on the (src, dst) pair; the network keeps
	// one shared, read-only set per pair.
	paths := make([][]wan.Path, len(reqs))
	for i, r := range reqs {
		ps, err := net.Paths(r.Src, r.Dst, pathsPerRequest)
		if err != nil {
			return nil, fmt.Errorf("sched: request %d: %w", r.ID, err)
		}
		paths[i] = ps
	}
	return &Instance{
		net:   net,
		slots: slots,
		reqs:  append([]demand.Request(nil), reqs...),
		paths: paths,
	}, nil
}

// Extend returns a new instance with reqs appended after this
// instance's requests, enumerating candidate paths for the newcomers
// exactly as NewInstance would. Path enumeration is deterministic in
// the (src, dst) pair, so Extend(a).Extend(b) and NewInstance(a++b)
// describe identical instances regardless of how arrivals were
// batched — the property the incremental replanner's differential
// tests lean on. The receiver is not modified; prefix request and
// path storage is shared.
func (in *Instance) Extend(reqs []demand.Request, pathsPerRequest int) (*Instance, error) {
	if len(reqs) == 0 {
		return in, nil
	}
	if pathsPerRequest <= 0 {
		return nil, fmt.Errorf("sched: pathsPerRequest %d must be positive", pathsPerRequest)
	}
	if err := demand.ValidateAll(reqs, in.net, in.slots); err != nil {
		return nil, err
	}
	paths := make([][]wan.Path, 0, len(in.paths)+len(reqs))
	paths = append(paths, in.paths...)
	for _, r := range reqs {
		ps, err := in.net.Paths(r.Src, r.Dst, pathsPerRequest)
		if err != nil {
			return nil, fmt.Errorf("sched: request %d: %w", r.ID, err)
		}
		paths = append(paths, ps)
	}
	all := make([]demand.Request, 0, len(in.reqs)+len(reqs))
	all = append(all, in.reqs...)
	all = append(all, reqs...)
	return &Instance{net: in.net, slots: in.slots, reqs: all, paths: paths}, nil
}

// Network returns the instance's WAN.
func (in *Instance) Network() *wan.Network { return in.net }

// Slots returns the billing cycle length.
func (in *Instance) Slots() int { return in.slots }

// NumRequests returns the number of requests.
func (in *Instance) NumRequests() int { return len(in.reqs) }

// Request returns the i-th request.
func (in *Instance) Request(i int) demand.Request { return in.reqs[i] }

// Requests returns a copy of all requests.
func (in *Instance) Requests() []demand.Request {
	out := make([]demand.Request, len(in.reqs))
	copy(out, in.reqs)
	return out
}

// NumPaths returns the number of candidate paths of request i.
func (in *Instance) NumPaths(i int) int { return len(in.paths[i]) }

// Path returns candidate path j of request i.
func (in *Instance) Path(i, j int) wan.Path { return in.paths[i][j] }

// Subset returns a new instance over the requests whose indices are in
// keep (candidate paths are reused, not re-enumerated). Indices refer to
// positions in this instance, not request ids.
func (in *Instance) Subset(keep []int) (*Instance, error) {
	sub := new(Instance)
	if err := sub.SetSubset(in, keep); err != nil {
		return nil, err
	}
	return sub, nil
}

// SetSubset makes in the instance of's Subset(keep) returns, in in's
// arrays: a loop that takes one subset per round allocates them about
// once. On an error in is left empty.
func (in *Instance) SetSubset(of *Instance, keep []int) error {
	in.Drop()
	for _, idx := range keep {
		if idx < 0 || idx >= len(of.reqs) {
			in.Drop()
			return fmt.Errorf("sched: subset index %d out of range", idx)
		}
		in.reqs = append(in.reqs, of.reqs[idx])
		in.paths = append(in.paths, of.paths[idx])
	}
	in.net, in.slots = of.net, of.slots
	return nil
}

// Drop empties in and keeps its arrays for the next SetSubset; in then
// holds no reference to the instance it was a subset of.
func (in *Instance) Drop() {
	clear(in.paths)
	in.net, in.slots, in.reqs, in.paths = nil, 0, in.reqs[:0], in.paths[:0]
}

// Validate re-checks the full instance state: every request against the
// network and billing cycle (window inside the horizon, positive rate,
// non-negative value), every candidate path set (non-empty, link ids in
// range, contiguous src→dst walk), and every link price (non-negative).
// NewInstance establishes these invariants at construction; Validate is
// for ingest layers that receive instances or requests from outside
// (metisd, scenario files) and want a typed *demand.ValidationError to
// surface to clients.
func (in *Instance) Validate() error {
	if in.slots <= 0 {
		return fmt.Errorf("sched: slots %d must be positive", in.slots)
	}
	for _, l := range in.net.Links() {
		if l.Price < 0 {
			return &demand.ValidationError{RequestID: -1, Field: demand.FieldPrice,
				Msg: fmt.Sprintf("link %d has negative price %v", l.ID, l.Price)}
		}
	}
	for i, r := range in.reqs {
		if err := r.Validate(in.net, in.slots); err != nil {
			return err
		}
		if len(in.paths[i]) == 0 {
			return &demand.ValidationError{RequestID: r.ID, Field: demand.FieldPaths,
				Msg: fmt.Sprintf("no candidate path from %d to %d", r.Src, r.Dst)}
		}
		for j, p := range in.paths[i] {
			if err := in.net.CheckWalk(p.Links, r.Src, r.Dst); err != nil {
				return &demand.ValidationError{RequestID: r.ID, Field: demand.FieldPaths,
					Msg: fmt.Sprintf("candidate path %d: %v", j, err)}
			}
		}
	}
	return nil
}

// UniformCaps returns a capacity vector with the same integer capacity
// on every link (e.g. 10 units = 100 Gbps in Fig. 4c/4d).
func (in *Instance) UniformCaps(units int) []int {
	caps := make([]int, in.net.NumLinks())
	for i := range caps {
		caps[i] = units
	}
	return caps
}
