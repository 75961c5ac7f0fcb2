// Package graph implements the directed-graph substrate used by the
// Inter-DC WAN model: shortest paths (Dijkstra), k-shortest loopless
// paths (Yen) and reachability.
package graph

import (
	"errors"
	"fmt"
)

// ErrNoPath is returned when no path exists between the requested nodes.
var ErrNoPath = errors.New("graph: no path between nodes")

// Edge is a directed edge with a non-negative weight.
type Edge struct {
	ID     int     // index into Graph.Edges
	From   int     // tail node
	To     int     // head node
	Weight float64 // routing weight (e.g. bandwidth price)
}

// Graph is a directed multigraph over nodes {0, ..., N-1}.
type Graph struct {
	n     int
	edges []Edge
	out   [][]int // out[v] = ids of edges leaving v
}

// New creates an empty graph with n nodes.
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{
		n:   n,
		out: make([][]int, n),
	}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns a copy of all edges.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, len(g.edges))
	copy(out, g.edges)
	return out
}

// AddEdge appends a directed edge and returns its id.
// It returns an error for out-of-range endpoints or negative weight.
func (g *Graph) AddEdge(from, to int, weight float64) (int, error) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		return 0, fmt.Errorf("graph: edge endpoints (%d, %d) out of range [0, %d)", from, to, g.n)
	}
	if weight < 0 {
		return 0, fmt.Errorf("graph: negative edge weight %v", weight)
	}
	if from == to {
		return 0, fmt.Errorf("graph: self-loop at node %d", from)
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{ID: id, From: from, To: to, Weight: weight})
	g.out[from] = append(g.out[from], id)
	return id, nil
}

// OutEdges returns the ids of edges leaving v. The brute-force path
// enumeration of TestShortestPathMatchesBruteForce and
// TestKShortestMatchesBruteForce walks the graph through it, apart
// from the search code it checks.
func (g *Graph) OutEdges(v int) []int {
	ids := make([]int, len(g.out[v]))
	copy(ids, g.out[v])
	return ids
}

// Path is a sequence of edge ids forming a directed walk. A valid Path
// produced by this package is loopless (visits each node at most once).
type Path struct {
	Edges []int   // edge ids in order
	Cost  float64 // total weight
}

// Nodes returns the node sequence of p in g, starting at the tail of the
// first edge. An empty path yields nil.
func (p Path) Nodes(g *Graph) []int {
	if len(p.Edges) == 0 {
		return nil
	}
	nodes := make([]int, 0, len(p.Edges)+1)
	nodes = append(nodes, g.edges[p.Edges[0]].From)
	for _, id := range p.Edges {
		nodes = append(nodes, g.edges[id].To)
	}
	return nodes
}

// Reachable reports whether dst is reachable from src.
func (g *Graph) Reachable(src, dst int) bool {
	if src == dst {
		return true
	}
	seen := make([]bool, g.n)
	queue := []int{src}
	seen[src] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.out[v] {
			w := g.edges[id].To
			if seen[w] {
				continue
			}
			if w == dst {
				return true
			}
			seen[w] = true
			queue = append(queue, w)
		}
	}
	return false
}

// StronglyConnected reports whether every node can reach every other
// node. TestStronglyConnected and wan's topology shape tests
// (TestB4Shape, TestSubB4Shape) hold the built networks to it.
func (g *Graph) StronglyConnected() bool {
	if g.n <= 1 {
		return true
	}
	for v := 1; v < g.n; v++ {
		if !g.Reachable(0, v) || !g.Reachable(v, 0) {
			return false
		}
	}
	return true
}
