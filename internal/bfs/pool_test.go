package bfs

import (
	"math"
	"testing"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// TestParallelMultiPoolDeterminism runs the level-synchronous BFS on one
// explicit pool at worker counts 1, 2 and 8; distances, round counts and
// relaxed-edge counters must match the sequential reference and each
// other at every count.
func TestParallelMultiPoolDeterminism(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid2D(50, 50),
		"gnm":  graph.GNM(4000, 16000, 9),
	}
	for name, g := range graphs {
		want := Sequential(g, 0)
		var refRounds int
		var refRelaxed int64
		for i, w := range []int{1, 2, 8} {
			res := ParallelMultiPool(pool, g, []uint32{0}, w)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("%s workers=%d: dist[%d]=%d want %d", name, w, v, res.Dist[v], want[v])
				}
			}
			if i == 0 {
				refRounds, refRelaxed = res.Rounds, res.Relaxed
			} else if res.Rounds != refRounds || res.Relaxed != refRelaxed {
				t.Fatalf("%s workers=%d: rounds/relaxed %d/%d differ from %d/%d",
					name, w, res.Rounds, res.Relaxed, refRounds, refRelaxed)
			}
		}
	}
}

// TestDirectionOptimizingPoolMatches runs the hybrid BFS on an explicit
// pool and checks distances against the sequential reference across
// worker counts.
func TestDirectionOptimizingPoolMatches(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	for _, g := range []*graph.Graph{
		graph.Grid2D(40, 40),
		graph.GNM(5000, 40000, 13),
	} {
		want := Sequential(g, 0)
		for _, w := range []int{1, 2, 8} {
			res := DirectionOptimizingPool(pool, g, 0, w)
			for v := range want {
				if res.Dist[v] != want[v] {
					t.Fatalf("workers=%d: dist[%d]=%d want %d", w, v, res.Dist[v], want[v])
				}
			}
		}
	}
}

// TestDeltaSteppingPoolMatchesDijkstra checks the pool-threaded bucket
// relaxation against the Dijkstra oracle.
func TestDeltaSteppingPoolMatchesDijkstra(t *testing.T) {
	pool := parallel.NewPool(4)
	defer pool.Close()
	wg := graph.RandomWeights(graph.Grid2D(25, 25), 1, 8, 21)
	want := DijkstraWeighted(wg, 0)
	init := make([]float64, wg.NumVertices())
	for i := range init {
		init[i] = math.Inf(1)
	}
	init[0] = 0
	for _, w := range []int{1, 2, 8} {
		res := deltaMulti(t, pool, wg, init, 0.5, w, DirectionAuto)
		for v, d := range want {
			if math.IsInf(d, 1) {
				continue
			}
			if diff := res.Dist[v] - d; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("workers=%d: dist[%d]=%g want %g", w, v, res.Dist[v], d)
			}
		}
	}
}
