package demand

import (
	"errors"
	"math"
	"testing"

	"metis/internal/wan"
)

func TestRequestActiveAtAndDuration(t *testing.T) {
	r := Request{Start: 3, End: 5}
	tests := []struct {
		t    int
		want bool
	}{
		{2, false}, {3, true}, {4, true}, {5, true}, {6, false},
	}
	for _, tt := range tests {
		if got := r.ActiveAt(tt.t); got != tt.want {
			t.Errorf("ActiveAt(%d) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if got := r.Duration(); got != 3 {
		t.Errorf("Duration = %d, want 3", got)
	}
}

func TestRequestValidate(t *testing.T) {
	net := wan.SubB4()
	valid := Request{ID: 1, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.2, Value: 1}
	if err := valid.Validate(net, 12); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	atLimit := valid
	atLimit.Rate = MaxRequestRate
	if err := atLimit.Validate(net, 12); err != nil {
		t.Fatalf("request at the rate limit rejected: %v", err)
	}
	tests := []struct {
		name string
		mut  func(*Request)
	}{
		{name: "src out of range", mut: func(r *Request) { r.Src = 9 }},
		{name: "dst out of range", mut: func(r *Request) { r.Dst = -1 }},
		{name: "src == dst", mut: func(r *Request) { r.Dst = r.Src }},
		{name: "negative start", mut: func(r *Request) { r.Start = -1 }},
		{name: "end beyond cycle", mut: func(r *Request) { r.End = 12 }},
		{name: "start after end", mut: func(r *Request) { r.Start = 5; r.End = 4 }},
		{name: "zero rate", mut: func(r *Request) { r.Rate = 0 }},
		{name: "negative value", mut: func(r *Request) { r.Value = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := valid
			tt.mut(&r)
			if err := r.Validate(net, 12); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestRequestValidateTypedErrors(t *testing.T) {
	net := wan.SubB4()
	valid := Request{ID: 7, Src: 0, Dst: 1, Start: 0, End: 11, Rate: 0.2, Value: 1}
	tests := []struct {
		name  string
		mut   func(*Request)
		field string
	}{
		{name: "src out of range", mut: func(r *Request) { r.Src = 9 }, field: FieldSrc},
		{name: "dst out of range", mut: func(r *Request) { r.Dst = -1 }, field: FieldDst},
		{name: "src == dst", mut: func(r *Request) { r.Dst = r.Src }, field: FieldDst},
		{name: "negative start", mut: func(r *Request) { r.Start = -1 }, field: FieldWindow},
		{name: "out of horizon", mut: func(r *Request) { r.End = 12 }, field: FieldWindow},
		{name: "inverted window", mut: func(r *Request) { r.Start = 5; r.End = 4 }, field: FieldWindow},
		{name: "zero rate", mut: func(r *Request) { r.Rate = 0 }, field: FieldRate},
		{name: "NaN rate", mut: func(r *Request) { r.Rate = math.NaN() }, field: FieldRate},
		{name: "infinite rate", mut: func(r *Request) { r.Rate = math.Inf(1) }, field: FieldRate},
		{name: "rate 1e19", mut: func(r *Request) { r.Rate = 1e19 }, field: FieldRate},
		{name: "rate 1e300", mut: func(r *Request) { r.Rate = 1e300 }, field: FieldRate},
		{name: "negative value", mut: func(r *Request) { r.Value = -1 }, field: FieldValue},
		{name: "NaN value", mut: func(r *Request) { r.Value = math.NaN() }, field: FieldValue},
		{name: "infinite value", mut: func(r *Request) { r.Value = math.Inf(1) }, field: FieldValue},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := valid
			tt.mut(&r)
			err := r.Validate(net, 12)
			var verr *ValidationError
			if !errors.As(err, &verr) {
				t.Fatalf("want *ValidationError, got %T: %v", err, err)
			}
			if verr.Field != tt.field {
				t.Fatalf("field = %q, want %q (err: %v)", verr.Field, tt.field, verr)
			}
			if verr.RequestID != 7 {
				t.Fatalf("request id = %d, want 7", verr.RequestID)
			}
		})
	}
}

func TestGenerateNProducesValidRequests(t *testing.T) {
	net := wan.B4()
	g, err := NewGenerator(net, DefaultGeneratorConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := g.GenerateN(500)
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 500 {
		t.Fatalf("got %d requests, want 500", len(reqs))
	}
	if err := ValidateAll(reqs, net, DefaultSlots); err != nil {
		t.Fatal(err)
	}
	for i, r := range reqs {
		if r.ID != i {
			t.Fatalf("request %d has id %d", i, r.ID)
		}
		if r.Rate < DefaultRateLo || r.Rate >= DefaultRateHi {
			t.Fatalf("rate %v outside [%v, %v)", r.Rate, DefaultRateLo, DefaultRateHi)
		}
		if r.Value <= 0 {
			t.Fatalf("request %d has non-positive value %v", i, r.Value)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	net := wan.SubB4()
	g1, _ := NewGenerator(net, DefaultGeneratorConfig(7))
	g2, _ := NewGenerator(net, DefaultGeneratorConfig(7))
	a, err := g1.GenerateN(50)
	if err != nil {
		t.Fatal(err)
	}
	b, err := g2.GenerateN(50)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	net := wan.SubB4()
	g1, _ := NewGenerator(net, DefaultGeneratorConfig(1))
	g2, _ := NewGenerator(net, DefaultGeneratorConfig(2))
	a, _ := g1.GenerateN(20)
	b, _ := g2.GenerateN(20)
	same := true
	for i := range a {
		if a[i].Rate != b[i].Rate || a[i].Src != b[i].Src {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestValueTracksReferencePriceAndDuration(t *testing.T) {
	net := wan.B4()
	cfg := DefaultGeneratorConfig(3)
	g, _ := NewGenerator(net, cfg)
	if g.refPrice <= 0 {
		t.Fatalf("reference price %v not positive", g.refPrice)
	}
	reqs, err := g.GenerateN(2000)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reqs {
		amortized := r.Rate * float64(r.Duration()) / float64(cfg.Slots) * g.refPrice
		ratio := r.Value / amortized
		if ratio < cfg.MarkupLo-1e-9 || ratio > cfg.MarkupHi+1e-9 {
			t.Fatalf("markup ratio %v outside [%v, %v]", ratio, cfg.MarkupLo, cfg.MarkupHi)
		}
	}
}

func TestValueModelCreatesRegionalTension(t *testing.T) {
	// Requests whose cheapest route crosses expensive regions must
	// frequently be worth less than their transport cost — the paper's
	// motivation for declining requests.
	net := wan.B4()
	g, _ := NewGenerator(net, DefaultGeneratorConfig(5))
	reqs, err := g.GenerateN(3000)
	if err != nil {
		t.Fatal(err)
	}
	losers := 0
	for _, r := range reqs {
		price, err := net.CheapestPathPrice(r.Src, r.Dst)
		if err != nil {
			t.Fatal(err)
		}
		amortizedCost := r.Rate * float64(r.Duration()) / float64(DefaultSlots) * price
		if r.Value < amortizedCost {
			losers++
		}
	}
	frac := float64(losers) / float64(len(reqs))
	if frac < 0.05 || frac > 0.8 {
		t.Fatalf("unprofitable fraction %v outside the useful range", frac)
	}
}

func TestGeneratorConfigValidation(t *testing.T) {
	net := wan.SubB4()
	tests := []struct {
		name string
		mut  func(*GeneratorConfig)
	}{
		{name: "zero slots", mut: func(c *GeneratorConfig) { c.Slots = 0 }},
		{name: "zero rate lo", mut: func(c *GeneratorConfig) { c.RateLo = 0 }},
		{name: "rate hi < lo", mut: func(c *GeneratorConfig) { c.RateHi = c.RateLo / 2 }},
		{name: "markup hi < lo", mut: func(c *GeneratorConfig) { c.MarkupHi = c.MarkupLo / 2 }},
		{name: "negative markup", mut: func(c *GeneratorConfig) { c.MarkupLo = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultGeneratorConfig(1)
			tt.mut(&cfg)
			if _, err := NewGenerator(net, cfg); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestGenerateNNegative(t *testing.T) {
	net := wan.SubB4()
	g, _ := NewGenerator(net, DefaultGeneratorConfig(1))
	if _, err := g.GenerateN(-1); err == nil {
		t.Fatal("want error for negative count")
	}
}

func TestTotalValueAndMaxRate(t *testing.T) {
	rs := []Request{{Rate: 0.3, Value: 2}, {Rate: 0.1, Value: 3}}
	if got := TotalValue(rs); got != 5 {
		t.Errorf("TotalValue = %v, want 5", got)
	}
	if got := MaxRate(rs); got != 0.3 {
		t.Errorf("MaxRate = %v, want 0.3", got)
	}
	if got := MaxRate(nil); got != 0 {
		t.Errorf("MaxRate(nil) = %v, want 0", got)
	}
}
