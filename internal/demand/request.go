// Package demand models user bandwidth-reservation requests and the
// synthetic workload generator used by the evaluation (a fixed count of
// Poisson-process arrivals, uniform rates, random slots and endpoints,
// price-linked values).
package demand

import (
	"fmt"
	"math"

	"metis/internal/wan"
)

// Request is the paper's six-tuple {s, d, ts, td, r, v}: reserve Rate
// bandwidth units from DC Src to DC Dst on every slot in [Start, End]
// (inclusive, 0-based) in exchange for Value if served.
type Request struct {
	ID    int     `json:"id"`
	Src   int     `json:"src"`
	Dst   int     `json:"dst"`
	Start int     `json:"start"`
	End   int     `json:"end"`
	Rate  float64 `json:"rate"`  // bandwidth units (1 unit = 10 Gbps)
	Value float64 `json:"value"` // revenue if the request is served
}

// ActiveAt reports whether the request occupies bandwidth at slot t.
func (r Request) ActiveAt(t int) bool { return t >= r.Start && t <= r.End }

// Duration returns the number of slots the request occupies.
func (r Request) Duration() int { return r.End - r.Start + 1 }

// Validation fields: the request attribute a ValidationError blames.
const (
	FieldSrc    = "src"
	FieldDst    = "dst"
	FieldWindow = "window"
	FieldRate   = "rate"
	FieldValue  = "value"
	// FieldPaths and FieldPrice are reported by instance-level
	// validation (candidate path sets, link prices) rather than by
	// Request.Validate itself.
	FieldPaths = "paths"
	FieldPrice = "price"
)

// ValidationError is a typed rejection of one request (or of the
// instance state backing it). Ingest layers (metisd, scenario loading)
// surface Field and Msg to clients; match with errors.As.
type ValidationError struct {
	// RequestID is the offending request's ID (not its instance index).
	RequestID int `json:"requestId"`
	// Field names the attribute that failed (Field* constants).
	Field string `json:"field"`
	// Msg is the human-readable reason.
	Msg string `json:"msg"`
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("demand: request %d: %s: %s", e.RequestID, e.Field, e.Msg)
}

// MaxRequestRate bounds a request's rate in bandwidth units (1e6 units
// = 10 Pbps). It is far above the paper's workloads (the generator draws
// 0.01–0.5 units) and far below 2^53, where a float64 stops holding
// whole units exactly, so a link's summed load always rounds up to an
// in-range int purchase; past 2^63 that conversion overflows and the
// purchase reads zero units.
const MaxRequestRate = 1e6

// Validate checks the request against a network and billing-cycle
// length. Failures are *ValidationError values.
func (r Request) Validate(net *wan.Network, slots int) error {
	fail := func(field, format string, args ...any) error {
		return &ValidationError{RequestID: r.ID, Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	switch {
	case r.Src < 0 || r.Src >= net.NumDCs():
		return fail(FieldSrc, "src %d out of range [0, %d)", r.Src, net.NumDCs())
	case r.Dst < 0 || r.Dst >= net.NumDCs():
		return fail(FieldDst, "dst %d out of range [0, %d)", r.Dst, net.NumDCs())
	case r.Src == r.Dst:
		return fail(FieldDst, "src == dst == %d", r.Src)
	case r.Start < 0 || r.End >= slots || r.Start > r.End:
		return fail(FieldWindow, "slot window [%d, %d] invalid for %d slots", r.Start, r.End, slots)
	case math.IsNaN(r.Rate) || r.Rate <= 0:
		return fail(FieldRate, "rate %v is not positive", r.Rate)
	case r.Rate > MaxRequestRate:
		return fail(FieldRate, "rate %v above the limit %v", r.Rate, MaxRequestRate)
	case math.IsNaN(r.Value) || math.IsInf(r.Value, 0):
		return fail(FieldValue, "non-finite value %v", r.Value)
	case r.Value < 0:
		return fail(FieldValue, "negative value %v", r.Value)
	}
	return nil
}

// ValidateAll validates every request in rs.
func ValidateAll(rs []Request, net *wan.Network, slots int) error {
	for _, r := range rs {
		if err := r.Validate(net, slots); err != nil {
			return err
		}
	}
	return nil
}

// TotalValue returns the sum of request values.
func TotalValue(rs []Request) float64 {
	var v float64
	for _, r := range rs {
		v += r.Value
	}
	return v
}

// MaxRate returns the largest rate among rs (0 for an empty slice).
func MaxRate(rs []Request) float64 {
	var m float64
	for _, r := range rs {
		if r.Rate > m {
			m = r.Rate
		}
	}
	return m
}
