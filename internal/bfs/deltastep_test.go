package bfs

import (
	"math"
	"testing"
	"testing/quick"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

func unitWeighted(g *graph.Graph) *graph.WeightedGraph {
	var wedges []graph.WeightedEdge
	for _, e := range g.Edges() {
		wedges = append(wedges, graph.WeightedEdge{U: e.U, V: e.V, W: 1})
	}
	wg, err := graph.FromWeightedEdges(g.NumVertices(), wedges)
	if err != nil {
		panic(err)
	}
	return wg
}

func TestDeltaSteppingMatchesDijkstra(t *testing.T) {
	cases := []*graph.WeightedGraph{
		graph.RandomWeights(graph.Grid2D(20, 20), 1, 10, 1),
		graph.RandomWeights(graph.GNM(300, 900, 2), 0.5, 5, 3),
		graph.RandomWeights(graph.Cycle(100), 1, 2, 4),
		unitWeighted(graph.BinaryTree(127)),
	}
	for gi, wg := range cases {
		for _, delta := range []float64{0, 0.5, 2, 100} {
			for _, workers := range []int{1, 4} {
				want := DijkstraWeighted(wg, 0)
				got := DeltaStepping(wg, 0, delta, workers)
				for v := range want {
					if math.Abs(want[v]-got.Dist[v]) > 1e-9 &&
						!(math.IsInf(want[v], 1) && math.IsInf(got.Dist[v], 1)) {
						t.Fatalf("graph %d delta=%g workers=%d: dist[%d]=%g want %g",
							gi, delta, workers, v, got.Dist[v], want[v])
					}
				}
			}
		}
	}
}

func TestDeltaSteppingParentsConsistent(t *testing.T) {
	wg := graph.RandomWeights(graph.Grid2D(15, 15), 1, 5, 7)
	res := DeltaStepping(wg, 3, 0, 2)
	for v := range res.Parent {
		if math.IsInf(res.Dist[v], 1) || uint32(v) == 3 {
			continue
		}
		p := res.Parent[v]
		nbrs, ws := wg.Neighbors(p)
		found := false
		for i, u := range nbrs {
			if u == uint32(v) && math.Abs(res.Dist[p]+ws[i]-res.Dist[v]) < 1e-9 {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d: parent %d does not explain dist %g", v, p, res.Dist[v])
		}
	}
}

func TestDeltaSteppingUnreachable(t *testing.T) {
	g, err := graph.FromEdges(5, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	wg := graph.RandomWeights(g, 1, 2, 1)
	res := DeltaStepping(wg, 0, 0, 1)
	for v := 2; v < 5; v++ {
		if !math.IsInf(res.Dist[v], 1) {
			t.Errorf("vertex %d should be unreachable", v)
		}
		if res.Parent[v] != uint32(v) {
			t.Errorf("unreachable vertex %d has foreign parent", v)
		}
	}
}

// deltaMulti runs the multi-source Δ-stepping engine with no cancellation
// context.
func deltaMulti(t *testing.T, pool *parallel.Pool, g *graph.WeightedGraph, init []float64, delta float64, workers int, dir Direction) *WeightedResult {
	t.Helper()
	res, err := DeltaSteppingMultiPoolDirCtx(nil, pool, g, init, delta, workers, dir)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDeltaSteppingMultiSource(t *testing.T) {
	wg := unitWeighted(graph.Path(10))
	init := make([]float64, 10)
	for i := range init {
		init[i] = math.Inf(1)
	}
	init[0] = 0.5
	init[9] = 0
	res := deltaMulti(t, nil, wg, init, 1, 2, DirectionAuto)
	for v := 0; v < 10; v++ {
		want := math.Min(0.5+float64(v), float64(9-v))
		if math.Abs(res.Dist[v]-want) > 1e-9 {
			t.Errorf("dist[%d]=%g want %g", v, res.Dist[v], want)
		}
	}
}

func TestDeltaSteppingEmptyGraph(t *testing.T) {
	wg, err := graph.FromWeightedEdges(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := deltaMulti(t, nil, wg, nil, 0, 1, DirectionAuto)
	if len(res.Dist) != 0 {
		t.Error("empty graph should give empty result")
	}
}

func TestDeltaSteppingNoSources(t *testing.T) {
	wg := unitWeighted(graph.Path(5))
	init := make([]float64, 5)
	for i := range init {
		init[i] = math.Inf(1)
	}
	res := deltaMulti(t, nil, wg, init, 1, 1, DirectionAuto)
	for v, d := range res.Dist {
		if !math.IsInf(d, 1) {
			t.Errorf("vertex %d reached without sources", v)
		}
	}
}

func TestDeltaSteppingQuickAgainstDijkstra(t *testing.T) {
	f := func(seed uint64, deltaRaw uint8) bool {
		g := graph.GNM(60, 150, seed%500)
		wg := graph.RandomWeights(g, 0.1, 4, seed)
		delta := 0.1 + float64(deltaRaw)/64
		a := DijkstraWeighted(wg, 0)
		b := DeltaStepping(wg, 0, delta, 3)
		for v := range a {
			if math.IsInf(a[v], 1) != math.IsInf(b.Dist[v], 1) {
				return false
			}
			if !math.IsInf(a[v], 1) && math.Abs(a[v]-b.Dist[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestDeltaSteppingRoundsScaleWithDelta(t *testing.T) {
	// Smaller delta => more buckets => more rounds (the depth/work knob).
	wg := graph.RandomWeights(graph.Grid2D(40, 40), 1, 4, 5)
	small := DeltaStepping(wg, 0, 0.5, 2)
	large := DeltaStepping(wg, 0, 50, 2)
	if small.Rounds <= large.Rounds {
		t.Errorf("rounds: delta=0.5 gives %d, delta=50 gives %d; expected more rounds at smaller delta",
			small.Rounds, large.Rounds)
	}
}

// TestDeltaSteppingSubUlpWeightsAcyclic is the regression test for the
// parent-cycle bug: when an edge weight is below half an ulp of the
// neighbor's distance, dist[u]+w rounds to dist[u] and adjacent vertices
// end with bit-identical distances — each explains the other exactly, so
// the parent resolution must break the tie (strictly decreasing
// (dist, id)) instead of building a 2-cycle.
func TestDeltaSteppingSubUlpWeightsAcyclic(t *testing.T) {
	wg, err := graph.FromWeightedEdges(4, []graph.WeightedEdge{
		{U: 0, V: 1, W: 1.0},
		{U: 1, V: 2, W: 1e-30},
		{U: 2, V: 3, W: 1e-30},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []Direction{DirectionPush, DirectionPull, DirectionAuto} {
		init := make([]float64, 4)
		for i := range init {
			init[i] = math.Inf(1)
		}
		init[0] = 0
		res := deltaMulti(t, nil, wg, init, 0, 2, dir)
		// Walk every parent chain; it must reach a self-parent within n steps.
		for v := range res.Parent {
			x, steps := uint32(v), 0
			for res.Parent[x] != x {
				x = res.Parent[x]
				if steps++; steps > len(res.Parent) {
					t.Fatalf("dir=%v: parent chain from %d cycles (parents=%v)", dir, v, res.Parent)
				}
			}
		}
		// Every non-source parent must still explain its child's distance.
		for v, p := range res.Parent {
			if uint32(v) == p {
				continue
			}
			if math.Float64bits(res.Dist[v]) != math.Float64bits(res.Dist[p]+edgeW(t, wg, p, uint32(v))) {
				t.Fatalf("dir=%v: parent %d does not explain dist of %d", dir, p, v)
			}
		}
	}
}

func edgeW(t *testing.T, wg *graph.WeightedGraph, u, v uint32) float64 {
	t.Helper()
	nbrs, ws := wg.Neighbors(u)
	for i, x := range nbrs {
		if x == v {
			return ws[i]
		}
	}
	t.Fatalf("no edge %d-%d", u, v)
	return 0
}
