package graph

import (
	"math"
	"sort"
	"testing"

	"metis/internal/stats"
)

// randomGraph builds a random strongly-connected-ish digraph with n
// nodes: a directed ring (guaranteeing reachability) plus extra random
// edges.
func randomGraph(rng *stats.RNG, n, extra int) *Graph {
	g := New(n)
	for v := 0; v < n; v++ {
		if _, err := g.AddEdge(v, (v+1)%n, rng.Uniform(0.5, 5)); err != nil {
			panic(err)
		}
	}
	for i := 0; i < extra; i++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		if _, err := g.AddEdge(from, to, rng.Uniform(0.5, 5)); err != nil {
			panic(err)
		}
	}
	return g
}

// allLooplessPaths enumerates every loopless path from src to dst by
// DFS — exponential, used only on tiny graphs as the test oracle.
func allLooplessPaths(g *Graph, src, dst int) []Path {
	var (
		out     []Path
		edges   []int
		visited = make([]bool, g.NumNodes())
	)
	var dfs func(v int, cost float64)
	dfs = func(v int, cost float64) {
		if v == dst {
			p := Path{Edges: append([]int(nil), edges...), Cost: cost}
			out = append(out, p)
			return
		}
		visited[v] = true
		for _, id := range g.OutEdges(v) {
			e := g.Edge(id)
			if visited[e.To] {
				continue
			}
			edges = append(edges, id)
			dfs(e.To, cost+e.Weight)
			edges = edges[:len(edges)-1]
		}
		visited[v] = false
	}
	dfs(src, 0)
	return out
}

// TestShortestPathMatchesBruteForce cross-checks Dijkstra against
// exhaustive loopless path enumeration on random small graphs.
func TestShortestPathMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(4)
		g := randomGraph(rng, n, n)
		src, dst := 0, 1+rng.Intn(n-1)

		got, err := g.ShortestPath(src, dst)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		all := allLooplessPaths(g, src, dst)
		if len(all) == 0 {
			t.Fatalf("trial %d: oracle found no path but Dijkstra did", trial)
		}
		best := math.Inf(1)
		for _, p := range all {
			if p.Cost < best {
				best = p.Cost
			}
		}
		if math.Abs(got.Cost-best) > 1e-9 {
			t.Fatalf("trial %d: Dijkstra %v, brute force %v", trial, got.Cost, best)
		}
	}
}

// TestKShortestMatchesBruteForce cross-checks Yen's algorithm against
// the sorted exhaustive enumeration.
func TestKShortestMatchesBruteForce(t *testing.T) {
	rng := stats.NewRNG(37)
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(3)
		g := randomGraph(rng, n, n+2)
		src, dst := 0, 1+rng.Intn(n-1)

		const k = 4
		got, err := g.KShortestPaths(src, dst, k)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		all := allLooplessPaths(g, src, dst)
		sort.Slice(all, func(i, j int) bool { return all[i].Cost < all[j].Cost })

		want := k
		if len(all) < k {
			want = len(all)
		}
		if len(got) != want {
			t.Fatalf("trial %d: Yen returned %d paths, oracle has %d (want %d)",
				trial, len(got), len(all), want)
		}
		for i := range got {
			if math.Abs(got[i].Cost-all[i].Cost) > 1e-9 {
				t.Fatalf("trial %d: path %d cost %v, oracle %v", trial, i, got[i].Cost, all[i].Cost)
			}
		}
	}
}
