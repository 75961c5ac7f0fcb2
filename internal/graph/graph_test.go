package graph

import (
	"errors"
	"testing"
)

// diamond builds the 4-node diamond 0→1→3, 0→2→3 with the given weights.
func diamond(t *testing.T, w01, w13, w02, w23 float64) *Graph {
	t.Helper()
	g := New(4)
	mustAdd(t, g, 0, 1, w01)
	mustAdd(t, g, 1, 3, w13)
	mustAdd(t, g, 0, 2, w02)
	mustAdd(t, g, 2, 3, w23)
	return g
}

func mustAdd(t *testing.T, g *Graph, from, to int, w float64) int {
	t.Helper()
	id, err := g.AddEdge(from, to, w)
	if err != nil {
		t.Fatalf("AddEdge(%d, %d, %v): %v", from, to, w, err)
	}
	return id
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name     string
		from, to int
		w        float64
	}{
		{name: "from out of range", from: -1, to: 1, w: 1},
		{name: "to out of range", from: 0, to: 3, w: 1},
		{name: "negative weight", from: 0, to: 1, w: -2},
		{name: "self loop", from: 1, to: 1, w: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := g.AddEdge(tt.from, tt.to, tt.w); err == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
	if g.NumEdges() != 0 {
		t.Fatalf("edges leaked: %d", g.NumEdges())
	}
}

func TestShortestPathPicksCheaper(t *testing.T) {
	g := diamond(t, 1, 1, 5, 5)
	p, err := g.ShortestPath(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cost != 2 {
		t.Fatalf("cost = %v, want 2", p.Cost)
	}
	nodes := p.Nodes(g)
	want := []int{0, 1, 3}
	if len(nodes) != len(want) {
		t.Fatalf("nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("nodes = %v, want %v", nodes, want)
		}
	}
}

func TestShortestPathNoPath(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, 1)
	if _, err := g.ShortestPath(0, 2); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestShortestPathSameNode(t *testing.T) {
	g := New(2)
	p, err := g.ShortestPath(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Edges) != 0 || p.Cost != 0 {
		t.Fatalf("unexpected path %+v", p)
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	g := diamond(t, 1, 1, 2, 2)
	paths, err := g.KShortestPaths(0, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2", len(paths))
	}
	if paths[0].Cost != 2 || paths[1].Cost != 4 {
		t.Fatalf("costs = %v, %v; want 2, 4", paths[0].Cost, paths[1].Cost)
	}
}

func TestKShortestPathsOrderedAndLoopless(t *testing.T) {
	// 5-node graph with several routes 0→4.
	g := New(5)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 4, 1)
	mustAdd(t, g, 0, 2, 1)
	mustAdd(t, g, 2, 4, 2)
	mustAdd(t, g, 1, 2, 0.5)
	mustAdd(t, g, 2, 3, 1)
	mustAdd(t, g, 3, 4, 1)
	mustAdd(t, g, 0, 3, 4)

	paths, err := g.KShortestPaths(0, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("got %d paths, want >= 3", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Cost < paths[i-1].Cost-1e-12 {
			t.Fatalf("paths out of order: %v then %v", paths[i-1].Cost, paths[i].Cost)
		}
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		key := pathKey(p)
		if seen[key] {
			t.Fatalf("duplicate path returned")
		}
		seen[key] = true
		nodes := p.Nodes(g)
		visited := make(map[int]bool)
		for _, v := range nodes {
			if visited[v] {
				t.Fatalf("path %v has a loop", nodes)
			}
			visited[v] = true
		}
		if nodes[0] != 0 || nodes[len(nodes)-1] != 4 {
			t.Fatalf("path %v has wrong endpoints", nodes)
		}
	}
}

func TestKShortestPathsKZero(t *testing.T) {
	g := diamond(t, 1, 1, 2, 2)
	paths, err := g.KShortestPaths(0, 3, 0)
	if err != nil || paths != nil {
		t.Fatalf("got (%v, %v), want (nil, nil)", paths, err)
	}
}

func TestKShortestPathsUnreachable(t *testing.T) {
	g := New(2)
	if _, err := g.KShortestPaths(0, 1, 3); !errors.Is(err, ErrNoPath) {
		t.Fatalf("err = %v, want ErrNoPath", err)
	}
}

func TestReachable(t *testing.T) {
	g := New(4)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	tests := []struct {
		src, dst int
		want     bool
	}{
		{0, 2, true},
		{2, 0, false},
		{0, 3, false},
		{1, 1, true},
	}
	for _, tt := range tests {
		if got := g.Reachable(tt.src, tt.dst); got != tt.want {
			t.Errorf("Reachable(%d, %d) = %v, want %v", tt.src, tt.dst, got, tt.want)
		}
	}
}

func TestStronglyConnected(t *testing.T) {
	g := New(3)
	mustAdd(t, g, 0, 1, 1)
	mustAdd(t, g, 1, 2, 1)
	if g.StronglyConnected() {
		t.Fatal("directed chain reported strongly connected")
	}
	mustAdd(t, g, 2, 0, 1)
	if !g.StronglyConnected() {
		t.Fatal("directed cycle not reported strongly connected")
	}
}

func TestEdgesCopyIsolated(t *testing.T) {
	g := diamond(t, 1, 1, 2, 2)
	es := g.Edges()
	es[0].Weight = 99
	if g.Edge(0).Weight == 99 {
		t.Fatal("Edges() exposed internal state")
	}
}
