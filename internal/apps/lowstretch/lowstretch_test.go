package lowstretch

import (
	"testing"

	"mpx/internal/bfs"
	"mpx/internal/graph"
)

func TestBuildSpanningTreeOnGrid(t *testing.T) {
	g := graph.Grid2D(20, 20)
	tr, err := Build(g, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != g.NumVertices()-1 {
		t.Errorf("tree has %d edges, want %d", len(tr.Edges), g.NumVertices()-1)
	}
	if tr.Levels < 1 {
		t.Error("expected at least one level")
	}
}

func TestTreeDistMatchesBFSOnTreeSubgraph(t *testing.T) {
	g := graph.Grid2D(10, 12)
	tr, err := Build(g, 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := graph.FromEdges(g.NumVertices(), tr.Edges)
	if err != nil {
		t.Fatal(err)
	}
	// LCA-based Dist must equal BFS distance in the tree subgraph.
	for _, src := range []uint32{0, 17, 63} {
		dist := bfs.Sequential(sub, src)
		for v := 0; v < g.NumVertices(); v++ {
			if got := tr.Dist(src, uint32(v)); got != dist[v] {
				t.Fatalf("Dist(%d,%d)=%d, BFS says %d", src, v, got, dist[v])
			}
		}
	}
}

func TestStretchStatsSane(t *testing.T) {
	g := graph.Grid2D(25, 25)
	tr, err := Build(g, 0.3, 3)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stretch()
	if st.Edges != g.NumEdges() {
		t.Errorf("stretch over %d edges, want %d", st.Edges, g.NumEdges())
	}
	if st.Mean < 1 {
		t.Errorf("mean stretch %g below 1 (tree distance of an edge is >= 1)", st.Mean)
	}
	if int64(st.Max) > 2*int64(g.NumVertices()) {
		t.Errorf("max stretch %d absurd", st.Max)
	}
}

func TestBFSTreeBaseline(t *testing.T) {
	g := graph.Torus2D(20, 20)
	tr, err := BFSTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Edges) != g.NumVertices()-1 {
		t.Errorf("BFS tree has %d edges", len(tr.Edges))
	}
	st := tr.Stretch()
	if st.Mean < 1 {
		t.Errorf("mean %g", st.Mean)
	}
}

func TestLowStretchBeatsBFSOnGrid(t *testing.T) {
	// The classical motivating example: on a √n×√n grid a BFS tree has
	// average stretch Θ(√n) while the AKPW-style tree keeps the average
	// polylogarithmic. With this seed the gap is > 2x, so this is a robust
	// shape test (32x32 grid: BFS mean ≈ 16.5, AKPW mean ≈ 7.2).
	g := graph.Grid2D(32, 32)
	bfsTree, err := BFSTree(g)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Build(g, 0.2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, l := bfsTree.Stretch(), ls.Stretch()
	if l.Mean >= b.Mean {
		t.Errorf("low-stretch mean %g not better than BFS mean %g", l.Mean, b.Mean)
	}
}

func TestBuildRejectsBadBeta(t *testing.T) {
	if _, err := Build(graph.Path(4), 1.5, 0); err == nil {
		t.Error("expected error")
	}
}

// TestEmptyAndTrivialGraphs runs both spanning-tree types, which share one
// LCA index, over the inputs that give the index the least to work with:
// the empty graph, a single vertex, an edgeless graph and a disconnected
// one. On every vertex Dist(v,v) is 0 and LCA(v,v) is v, Dist across
// components is -1, and the forest has n - components edges.
func TestEmptyAndTrivialGraphs(t *testing.T) {
	type pair struct {
		u, v uint32
		dist float64 // -1: different components
	}
	cases := []struct {
		name   string
		n      int
		edges  []graph.Edge
		forest int // spanning-forest edge count
		pairs  []pair
	}{
		{name: "empty"},
		{name: "single", n: 1},
		{name: "edgeless", n: 5, pairs: []pair{{0, 4, -1}, {1, 2, -1}}},
		{
			// Components {0,1,2}, {3,4,5} and the isolated vertex 6.
			name: "two-components", n: 7,
			edges:  []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}, {U: 4, V: 5}},
			forest: 4,
			pairs:  []pair{{0, 3, -1}, {2, 6, -1}, {5, 6, -1}, {0, 2, 2}, {3, 5, 2}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := graph.FromEdges(tc.n, tc.edges)
			if err != nil {
				t.Fatal(err)
			}
			wedges := make([]graph.WeightedEdge, len(tc.edges))
			for i, e := range tc.edges {
				wedges[i] = graph.WeightedEdge{U: e.U, V: e.V, W: 1}
			}
			wg, err := graph.FromWeightedEdges(tc.n, wedges)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Build(g, 0.3, 5)
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			wt, err := BuildWeighted(wg, 0.3, 5)
			if err != nil {
				t.Fatalf("BuildWeighted: %v", err)
			}
			trees := []struct {
				kind  string
				edges int
				dist  func(u, v uint32) float64
				lca   func(u, v uint32) uint32
			}{
				{"Tree", len(tr.Edges), func(u, v uint32) float64 { return float64(tr.Dist(u, v)) }, tr.LCA},
				{"WeightedTree", len(wt.Edges), wt.Dist, wt.LCA},
			}
			for _, x := range trees {
				if x.edges != tc.forest {
					t.Errorf("%s: forest has %d edges, want %d", x.kind, x.edges, tc.forest)
				}
				for v := uint32(0); v < uint32(tc.n); v++ {
					if d := x.dist(v, v); d != 0 {
						t.Errorf("%s: Dist(%d,%d) = %g, want 0", x.kind, v, v, d)
					}
					if l := x.lca(v, v); l != v {
						t.Errorf("%s: LCA(%d,%d) = %d", x.kind, v, v, l)
					}
				}
				for _, p := range tc.pairs {
					if d := x.dist(p.u, p.v); d != p.dist {
						t.Errorf("%s: Dist(%d,%d) = %g, want %g", x.kind, p.u, p.v, d, p.dist)
					}
				}
			}
		})
	}
}

func TestLCASymmetricAndIdempotent(t *testing.T) {
	g := graph.BinaryTree(63)
	tr, err := Build(g, 0.4, 6)
	if err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 63; u += 7 {
		for v := uint32(0); v < 63; v += 5 {
			if tr.LCA(u, v) != tr.LCA(v, u) {
				t.Fatalf("LCA not symmetric for (%d,%d)", u, v)
			}
		}
		if tr.LCA(u, u) != u {
			t.Fatalf("LCA(%d,%d) != %d", u, u, u)
		}
	}
}
