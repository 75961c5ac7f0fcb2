// Package wan models the Inter-DC wide-area network substrate: data
// centers, directed priced links, reference topologies (B4, SUB-B4),
// region-based bandwidth pricing, and per-request path-set enumeration.
//
// Bandwidth is measured in abstract units (1 unit = 10 Gbps, matching
// the paper); link prices are the cost of one unit on one link for one
// billing cycle.
package wan

import (
	"fmt"
	"sync"

	"metis/internal/graph"
)

// Region is a coarse geographic region used for bandwidth pricing.
type Region int

// Regions mirror the Cloudflare relative-price regions cited by the paper.
const (
	RegionNorthAmerica Region = iota + 1
	RegionEurope
	RegionAsia
	RegionSouthAmerica
	RegionOceania
)

// String returns the region name.
func (r Region) String() string {
	switch r {
	case RegionNorthAmerica:
		return "north-america"
	case RegionEurope:
		return "europe"
	case RegionAsia:
		return "asia"
	case RegionSouthAmerica:
		return "south-america"
	case RegionOceania:
		return "oceania"
	default:
		return fmt.Sprintf("region(%d)", int(r))
	}
}

// RelativePrice returns the region's relative bandwidth price
// (Europe = 1), following the Cloudflare figures the paper references.
func (r Region) RelativePrice() float64 {
	switch r {
	case RegionNorthAmerica, RegionEurope:
		return 1.0
	case RegionAsia:
		return 6.5
	case RegionSouthAmerica:
		return 17.0
	case RegionOceania:
		return 20.0
	default:
		return 1.0
	}
}

// DC is a data center (a node of the Inter-DC WAN).
type DC struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Region Region `json:"region"`
}

// Link is a directed Inter-DC link with a per-unit bandwidth price.
type Link struct {
	ID    int     `json:"id"`
	From  int     `json:"from"`
	To    int     `json:"to"`
	Price float64 `json:"price"` // cost of one bandwidth unit per billing cycle
}

// Path is a directed route through the WAN, stored as link ids.
type Path struct {
	Links []int   `json:"links"`
	Price float64 `json:"price"` // sum of link prices (one unit, one cycle)
}

// Network is an immutable Inter-DC WAN topology with prices.
type Network struct {
	name  string
	dcs   []DC
	links []Link
	g     *graph.Graph

	// The topology never changes after NewNetwork, so a candidate-path
	// set is computed once per (src, dst, k) and shared from then on.
	pathMu sync.Mutex
	paths  map[pathKey][]Path
}

type pathKey struct{ src, dst, k int }

// NewNetwork builds a network from data centers and directed links.
// Link ids are reassigned to their slice index.
func NewNetwork(name string, dcs []DC, links []Link) (*Network, error) {
	if len(dcs) == 0 {
		return nil, fmt.Errorf("wan: network %q has no data centers", name)
	}
	g := graph.New(len(dcs))
	owned := make([]Link, len(links))
	for i, l := range links {
		if l.Price < 0 {
			return nil, fmt.Errorf("wan: link %d→%d has negative price %v", l.From, l.To, l.Price)
		}
		id, err := g.AddEdge(l.From, l.To, l.Price)
		if err != nil {
			return nil, fmt.Errorf("wan: %w", err)
		}
		if id != i {
			return nil, fmt.Errorf("wan: internal edge id mismatch (%d != %d)", id, i)
		}
		owned[i] = Link{ID: i, From: l.From, To: l.To, Price: l.Price}
	}
	return &Network{
		name: name, dcs: append([]DC(nil), dcs...), links: owned, g: g,
		paths: make(map[pathKey][]Path),
	}, nil
}

// Name returns the topology's name (e.g. "B4").
func (n *Network) Name() string { return n.name }

// NumDCs returns the number of data centers.
func (n *Network) NumDCs() int { return len(n.dcs) }

// NumLinks returns the number of directed links.
func (n *Network) NumLinks() int { return len(n.links) }

// DC returns the data center with the given id.
func (n *Network) DC(id int) DC { return n.dcs[id] }

// Link returns the directed link with the given id.
func (n *Network) Link(id int) Link { return n.links[id] }

// Links returns a copy of all directed links.
func (n *Network) Links() []Link {
	out := make([]Link, len(n.links))
	copy(out, n.links)
	return out
}

// Paths returns up to k cheapest loopless paths from src to dst ordered
// by ascending price. The result is memoised per (src, dst, k): every
// caller gets the same slice and the same Path.Links backing arrays, so
// both are shared and read-only — copy before modifying. Errors are
// never cached. Safe for concurrent use.
func (n *Network) Paths(src, dst, k int) ([]Path, error) {
	if nd := len(n.dcs); src < 0 || src >= nd || dst < 0 || dst >= nd {
		return nil, fmt.Errorf("wan: paths %d→%d: DC out of range [0, %d)", src, dst, nd)
	}
	if src == dst {
		return nil, fmt.Errorf("wan: src and dst are both DC %d", src)
	}
	key := pathKey{src, dst, k}
	n.pathMu.Lock()
	defer n.pathMu.Unlock()
	if ps, ok := n.paths[key]; ok {
		return ps, nil
	}
	gps, err := n.g.KShortestPaths(src, dst, k)
	if err != nil {
		return nil, fmt.Errorf("wan: paths %d→%d: %w", src, dst, err)
	}
	out := make([]Path, len(gps))
	for i, gp := range gps {
		out[i] = Path{Links: append([]int(nil), gp.Edges...), Price: gp.Cost}
	}
	n.paths[key] = out
	return out, nil
}

// CheckWalk reports why links is not a chain of the network's links
// from DC src to DC dst, or nil when it is.
func (n *Network) CheckWalk(links []int, src, dst int) error {
	at := src
	for _, e := range links {
		if e < 0 || e >= len(n.links) {
			return fmt.Errorf("link %d is not on %s (%d links)", e, n.name, len(n.links))
		}
		l := n.links[e]
		if l.From != at {
			return fmt.Errorf("link %d leaves DC %d, the path is at DC %d", e, l.From, at)
		}
		at = l.To
	}
	if at != dst {
		return fmt.Errorf("the path ends at DC %d, the request goes to DC %d", at, dst)
	}
	return nil
}

// CheapestPathPrice returns the price of the cheapest src→dst path, i.e.
// the cost of carrying one bandwidth unit for a full billing cycle along
// the cheapest route.
func (n *Network) CheapestPathPrice(src, dst int) (float64, error) {
	p, err := n.g.ShortestPath(src, dst)
	if err != nil {
		return 0, fmt.Errorf("wan: cheapest path %d→%d: %w", src, dst, err)
	}
	return p.Cost, nil
}

// linkPrice derives a directed link's price from its endpoint regions:
// the mean of the two regions' relative prices. Only relative prices
// matter for the paper's reported ratios.
func linkPrice(a, b Region) float64 {
	return (a.RelativePrice() + b.RelativePrice()) / 2
}

// bidiLinks expands undirected (a, b) pairs into two directed links with
// region-derived prices.
func bidiLinks(dcs []DC, pairs [][2]int) []Link {
	links := make([]Link, 0, 2*len(pairs))
	for _, p := range pairs {
		price := linkPrice(dcs[p[0]].Region, dcs[p[1]].Region)
		links = append(links,
			Link{From: p[0], To: p[1], Price: price},
			Link{From: p[1], To: p[0], Price: price},
		)
	}
	return links
}
