package solver

// Weighted SDD machinery: the Laplacian of a weighted graph (weights as
// conductances, L = D_w − A_w) and the exact O(n) tree solver for weighted
// spanning trees — the pieces that let the tree-preconditioned CG pipeline
// run on the weighted low-stretch trees the AKPW hierarchy now produces.
//
// Both are written so that at unit weights they perform the exact float
// operations of their unweighted counterparts: WeightedLaplacian.Apply
// accumulates the weighted degree as a sum of the incident weights (a sum
// of 1.0s is exactly the integer degree) and subtracts w·x[u] terms
// (1.0·x[u] is exactly x[u]), and WeightedTreeSolver divides subtree sums
// by the edge weight (S/1.0 is exactly S). The unit-weight equivalence
// tests pin this bit for bit.

import (
	"errors"
	"math"

	"mpx/internal/graph"
)

// WeightedLaplacian is the linear operator L = D_w − A_w of a weighted
// graph, with edge weights acting as conductances.
type WeightedLaplacian struct {
	g *graph.WeightedGraph
}

// NewWeightedLaplacian wraps a weighted graph as its Laplacian operator.
func NewWeightedLaplacian(wg *graph.WeightedGraph) *WeightedLaplacian {
	return &WeightedLaplacian{g: wg}
}

// Dim returns the number of variables (vertices).
func (l *WeightedLaplacian) Dim() int { return l.g.NumVertices() }

// Apply computes out = L·x.
func (l *WeightedLaplacian) Apply(x, out []float64) {
	for v := 0; v < l.g.NumVertices(); v++ {
		nbrs, ws := l.g.Neighbors(uint32(v))
		var wdeg float64
		for _, w := range ws {
			wdeg += w
		}
		s := wdeg * x[v]
		for i, u := range nbrs {
			s -= ws[i] * x[u]
		}
		out[v] = s
	}
}

// WeightedTreeSolver solves L_T y = r exactly in O(n) for the Laplacian of
// a weighted spanning tree T (weights as conductances). The right-hand
// side must sum to zero; the returned solution is normalized to mean zero.
type WeightedTreeSolver struct {
	n       int
	parent  []int32   // parent vertex in the rooted tree, -1 for the root
	parentW []float64 // weight of the edge to the parent
	order   []int32   // vertices in BFS order from the root (parents first)
}

// NewWeightedTreeSolver roots the given weighted spanning tree. The edges
// must form a spanning tree of n vertices with positive weights.
func NewWeightedTreeSolver(n int, edges []graph.WeightedEdge) (*WeightedTreeSolver, error) {
	if len(edges) != n-1 && n > 0 {
		return nil, errors.New("solver: edge set is not a spanning tree")
	}
	type arc struct {
		to int32
		w  float64
	}
	adj := make([][]arc, n)
	for _, e := range edges {
		if int(e.U) >= n || int(e.V) >= n {
			return nil, errors.New("solver: tree edge out of range")
		}
		if !(e.W > 0) || math.IsInf(e.W, 0) {
			return nil, errors.New("solver: tree edge weight must be positive and finite")
		}
		adj[e.U] = append(adj[e.U], arc{to: int32(e.V), w: e.W})
		adj[e.V] = append(adj[e.V], arc{to: int32(e.U), w: e.W})
	}
	ts := &WeightedTreeSolver{
		n:       n,
		parent:  make([]int32, n),
		parentW: make([]float64, n),
		order:   make([]int32, 0, n),
	}
	for i := range ts.parent {
		ts.parent[i] = -2 // unvisited
	}
	if n == 0 {
		return ts, nil
	}
	ts.parent[0] = -1
	ts.order = append(ts.order, 0)
	for head := 0; head < len(ts.order); head++ {
		v := ts.order[head]
		for _, a := range adj[v] {
			if ts.parent[a.to] == -2 {
				ts.parent[a.to] = v
				ts.parentW[a.to] = a.w
				ts.order = append(ts.order, a.to)
			}
		}
	}
	if len(ts.order) != n {
		return nil, errors.New("solver: tree is not connected")
	}
	return ts, nil
}

// Solve computes y with L_T y = r into out. Two passes: subtree sums
// upward, then potentials downward — the current through the edge to the
// parent is the subtree sum, so the potential drop across it is
// S/w (conductance w); finally shift to mean zero.
func (ts *WeightedTreeSolver) Solve(r, out []float64) {
	n := ts.n
	if n == 0 {
		return
	}
	s := out // reuse out as scratch: filled in reverse BFS order
	copy(s, r)
	for i := n - 1; i >= 1; i-- {
		v := ts.order[i]
		s[ts.parent[v]] += s[v]
	}
	root := ts.order[0]
	s[root] = 0
	for i := 1; i < n; i++ {
		v := ts.order[i]
		s[v] = s[ts.parent[v]] + s[v]/ts.parentW[v]
	}
	var mean float64
	for _, y := range s {
		mean += y
	}
	mean /= float64(n)
	for i := range s {
		s[i] -= mean
	}
}

// WeightedPCG runs conjugate gradient on the weighted Laplacian
// preconditioned by exact weighted tree solves.
func WeightedPCG(l *WeightedLaplacian, ts *WeightedTreeSolver, b []float64, tol float64, maxIter int) ([]float64, Result) {
	return pcgOp(l.Apply, l.Dim(), b, tol, maxIter, ts.Solve)
}

// NewWeightedSolver builds a reusable solver over the weighted Laplacian,
// preconditioned by exact weighted tree solves (ts nil = plain CG). See
// Solver: repeated Solves reuse all scratch and, for a non-nil ts, are
// bit-identical to WeightedPCG.
func NewWeightedSolver(l *WeightedLaplacian, ts *WeightedTreeSolver, tol float64, maxIter int) *Solver {
	var pre func(r, z []float64)
	if ts != nil {
		pre = ts.Solve
	}
	return newSolver(l.Apply, l.Dim(), tol, maxIter, pre)
}
