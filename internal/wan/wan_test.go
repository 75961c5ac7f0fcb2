package wan

import (
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestB4Shape(t *testing.T) {
	n := B4()
	if got := n.NumDCs(); got != 12 {
		t.Errorf("NumDCs = %d, want 12", got)
	}
	if got := n.NumLinks(); got != 38 {
		t.Errorf("NumLinks = %d, want 38 (19 bidirectional)", got)
	}
	if !n.g.StronglyConnected() {
		t.Error("B4 must be strongly connected")
	}
}

func TestSubB4Shape(t *testing.T) {
	n := SubB4()
	if got := n.NumDCs(); got != 6 {
		t.Errorf("NumDCs = %d, want 6", got)
	}
	if got := n.NumLinks(); got != 14 {
		t.Errorf("NumLinks = %d, want 14 (7 bidirectional)", got)
	}
	if !n.g.StronglyConnected() {
		t.Error("SUB-B4 must be strongly connected")
	}
}

func TestB4LinkPricesPositiveAndSymmetric(t *testing.T) {
	n := B4()
	// Build reverse lookup.
	price := make(map[[2]int]float64)
	for _, l := range n.Links() {
		if l.Price <= 0 {
			t.Fatalf("link %d→%d has non-positive price %v", l.From, l.To, l.Price)
		}
		price[[2]int{l.From, l.To}] = l.Price
	}
	for k, p := range price {
		rev, ok := price[[2]int{k[1], k[0]}]
		if !ok {
			t.Fatalf("link %v has no reverse link", k)
		}
		if rev != p {
			t.Fatalf("asymmetric price on %v: %v vs %v", k, p, rev)
		}
	}
}

func TestB4AsiaLinksCostMore(t *testing.T) {
	n := B4()
	var naPrice, asiaPrice float64
	for _, l := range n.Links() {
		fromR := n.DC(l.From).Region
		toR := n.DC(l.To).Region
		if fromR == RegionNorthAmerica && toR == RegionNorthAmerica {
			naPrice = l.Price
		}
		if fromR == RegionAsia && toR == RegionAsia {
			asiaPrice = l.Price
		}
	}
	if naPrice == 0 || asiaPrice == 0 {
		t.Fatal("expected both intra-NA and intra-Asia links in B4")
	}
	if asiaPrice <= naPrice {
		t.Fatalf("asia price %v should exceed NA price %v", asiaPrice, naPrice)
	}
}

func TestPathsAllPairs(t *testing.T) {
	for _, n := range []*Network{B4(), SubB4()} {
		t.Run(n.Name(), func(t *testing.T) {
			for s := 0; s < n.NumDCs(); s++ {
				for d := 0; d < n.NumDCs(); d++ {
					if s == d {
						continue
					}
					paths, err := n.Paths(s, d, 3)
					if err != nil {
						t.Fatalf("Paths(%d, %d): %v", s, d, err)
					}
					if len(paths) == 0 {
						t.Fatalf("no paths %d→%d", s, d)
					}
					for i := 1; i < len(paths); i++ {
						if paths[i].Price < paths[i-1].Price-1e-12 {
							t.Fatalf("paths %d→%d out of price order", s, d)
						}
					}
					// Each path must be a contiguous s→d route.
					for _, p := range paths {
						cur := s
						var sum float64
						for _, id := range p.Links {
							l := n.Link(id)
							if l.From != cur {
								t.Fatalf("path %v not contiguous at link %d", p.Links, id)
							}
							cur = l.To
							sum += l.Price
						}
						if cur != d {
							t.Fatalf("path %v ends at %d, want %d", p.Links, cur, d)
						}
						if diff := sum - p.Price; diff > 1e-9 || diff < -1e-9 {
							t.Fatalf("path price %v != link sum %v", p.Price, sum)
						}
					}
				}
			}
		})
	}
}

func TestPathsSameEndpointRejected(t *testing.T) {
	n := SubB4()
	if _, err := n.Paths(2, 2, 3); err == nil {
		t.Fatal("want error for src == dst")
	}
}

func TestCheapestPathPriceMatchesFirstPath(t *testing.T) {
	n := B4()
	paths, err := n.Paths(0, 11, 3)
	if err != nil {
		t.Fatal(err)
	}
	cheapest, err := n.CheapestPathPrice(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	if cheapest != paths[0].Price {
		t.Fatalf("cheapest %v != first path price %v", cheapest, paths[0].Price)
	}
}

func TestNewNetworkValidation(t *testing.T) {
	dcs := []DC{{ID: 0, Region: RegionEurope}, {ID: 1, Region: RegionEurope}}
	tests := []struct {
		name  string
		dcs   []DC
		links []Link
	}{
		{name: "no dcs", dcs: nil, links: nil},
		{name: "negative price", dcs: dcs, links: []Link{{From: 0, To: 1, Price: -1}}},
		{name: "bad endpoint", dcs: dcs, links: []Link{{From: 0, To: 5, Price: 1}}},
		{name: "self loop", dcs: dcs, links: []Link{{From: 1, To: 1, Price: 1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewNetwork("bad", tt.dcs, tt.links); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}

func TestRegionString(t *testing.T) {
	tests := []struct {
		r    Region
		want string
	}{
		{RegionNorthAmerica, "north-america"},
		{RegionEurope, "europe"},
		{RegionAsia, "asia"},
		{RegionSouthAmerica, "south-america"},
		{RegionOceania, "oceania"},
		{Region(99), "region(99)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", tt.r, got, tt.want)
		}
	}
}

// forEachPair calls fn for every ordered pair of distinct DCs and k in
// {1, 3}.
func forEachPair(n *Network, fn func(src, dst, k int)) {
	for src := 0; src < n.NumDCs(); src++ {
		for dst := 0; dst < n.NumDCs(); dst++ {
			if src == dst {
				continue
			}
			for _, k := range []int{1, 3} {
				fn(src, dst, k)
			}
		}
	}
}

// TestPathsMemoised: the path table returns exactly what a fresh Yen run
// returns, and computes it once — a second call hands back the same
// backing arrays.
func TestPathsMemoised(t *testing.T) {
	for _, n := range []*Network{B4(), SubB4()} {
		t.Run(n.Name(), func(t *testing.T) {
			forEachPair(n, func(src, dst, k int) {
				got, err := n.Paths(src, dst, k)
				if err != nil {
					t.Fatalf("Paths(%d, %d, %d): %v", src, dst, k, err)
				}
				fresh, err := n.g.KShortestPaths(src, dst, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(fresh) {
					t.Fatalf("Paths(%d, %d, %d) has %d paths, Yen %d", src, dst, k, len(got), len(fresh))
				}
				for i := range got {
					if !reflect.DeepEqual(got[i].Links, fresh[i].Edges) || got[i].Price != fresh[i].Cost {
						t.Fatalf("Paths(%d, %d, %d)[%d] = %+v, Yen %+v", src, dst, k, i, got[i], fresh[i])
					}
				}
				again, err := n.Paths(src, dst, k)
				if err != nil {
					t.Fatal(err)
				}
				if &again[0] != &got[0] || &again[0].Links[0] != &got[0].Links[0] {
					t.Fatalf("Paths(%d, %d, %d) recomputed on the second call", src, dst, k)
				}
			})
		})
	}
}

// TestPathsConcurrent: goroutines racing on a cold table all end up with
// the one shared result per key (run under -race).
func TestPathsConcurrent(t *testing.T) {
	for _, n := range []*Network{B4(), SubB4()} {
		const workers = 8
		firsts := make([]map[pathKey]*Path, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				seen := make(map[pathKey]*Path)
				forEachPair(n, func(src, dst, k int) {
					ps, err := n.Paths(src, dst, k)
					if err != nil || len(ps) == 0 {
						t.Errorf("Paths(%d, %d, %d): %d paths, %v", src, dst, k, len(ps), err)
						return
					}
					seen[pathKey{src, dst, k}] = &ps[0]
				})
				firsts[w] = seen
			}(w)
		}
		wg.Wait()
		for w := 1; w < workers; w++ {
			if len(firsts[w]) != len(firsts[0]) {
				t.Fatalf("%s: goroutine %d saw %d keys, goroutine 0 %d", n.Name(), w, len(firsts[w]), len(firsts[0]))
			}
			for key, p := range firsts[0] {
				if firsts[w][key] != p {
					t.Fatalf("%s: %+v not shared between goroutines", n.Name(), key)
				}
			}
		}
	}
}

// TestPathsErrorsNotCached: a refused query is refused every time and
// leaves no entry behind.
func TestPathsErrorsNotCached(t *testing.T) {
	n := SubB4()
	for _, q := range [][2]int{{2, 2}, {-1, 3}, {0, n.NumDCs()}, {n.NumDCs(), 0}} {
		for try := 0; try < 2; try++ {
			if ps, err := n.Paths(q[0], q[1], 3); err == nil {
				t.Fatalf("Paths(%d, %d) try %d = %v, want an error", q[0], q[1], try, ps)
			}
		}
	}
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	if len(n.paths) != 0 {
		t.Fatalf("%d path-table entries after only refused queries", len(n.paths))
	}
}

func TestCheckWalk(t *testing.T) {
	n := SubB4()
	p, err := n.Paths(0, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	walk := p[0].Links
	if len(walk) < 2 {
		t.Fatalf("cheapest 0→3 path %v has one link; want a multi-hop walk", walk)
	}
	cases := []struct {
		name     string
		links    []int
		src, dst int
		want     string // "" means valid
	}{
		{"valid", walk, 0, 3, ""},
		{"out-of-range link", append([]int{n.NumLinks()}, walk[1:]...), 0, 3, "link 14 is not on SUB-B4 (14 links)"},
		{"negative link", []int{-1}, 0, 3, "link -1 is not on SUB-B4"},
		{"discontinuous walk", walk[1:], 0, 3, "leaves DC"},
		{"wrong end", walk[:len(walk)-1], 0, 3, "the path ends at DC"},
		{"empty walk", nil, 0, 3, "the path ends at DC 0, the request goes to DC 3"},
	}
	for _, c := range cases {
		err := n.CheckWalk(c.links, c.src, c.dst)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: CheckWalk(%v) = %v, want nil", c.name, c.links, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: CheckWalk(%v) = %v, want an error containing %q", c.name, c.links, err, c.want)
		}
	}
}
