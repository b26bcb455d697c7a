package lowstretch

import (
	"math/bits"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// lcaIndex is the O(1) LCA index Tree and WeightedTree both embed by value
// (so a Dist query reads its arrays without a pointer hop): depths from each
// component root, the Euler tour of a DFS over the forest, the depth-min
// sparse table over the tour, and per-vertex component labels.
type lcaIndex struct {
	depth  []int32
	wdepth []float64 // weighted depth from the component root (WeightedTree only)
	order  []int32   // first visit position of each vertex in the Euler tour
	euler  []uint32
	// sparse is the LCA sparse table over euler positions (min by depth),
	// flattened into one stride-indexed backing array: row k occupies
	// sparse[k*sstride : k*sstride + len(euler) - (1<<k) + 1]. One flat
	// allocation and no per-row pointer chase on the query path — the
	// layout the high-QPS oracle batch kernels read.
	sparse  []uint32
	sstride int
	comp    []int32 // connected component labels (forest support)

	// pool/workers drive the parallel index build (each sparse-table row
	// is an independent elementwise min-scan over the previous row). A nil
	// pool means parallel.Default(); queries never touch the pool.
	pool    *parallel.Pool
	workers int
}

// build indexes the forest with the given edges on n > 0 vertices and
// returns its component count; weights, when non-nil, are the edges'
// weights and also fill wdepth. The DFS restarts from every still-unvisited
// vertex, so every vertex is reached by construction; the caller checks the
// forest invariant (n - components edges: acyclic and spanning).
func (x *lcaIndex) build(n int, edges []graph.Edge, weights []float64) int {
	// CSR-style forest adjacency: flat allocations instead of O(n)
	// per-vertex append churn (the E22 alloc gate watches this path).
	offs := make([]int64, n+1)
	for _, e := range edges {
		offs[e.U+1]++
		offs[e.V+1]++
	}
	for i := 0; i < n; i++ {
		offs[i+1] += offs[i]
	}
	flat := make([]uint32, offs[n])
	var flatW []float64
	if weights != nil {
		flatW = make([]float64, offs[n])
	}
	cursor := make([]int64, n)
	for i, e := range edges {
		a := offs[e.U] + cursor[e.U]
		flat[a] = e.V
		cursor[e.U]++
		b := offs[e.V] + cursor[e.V]
		flat[b] = e.U
		cursor[e.V]++
		if weights != nil {
			flatW[a], flatW[b] = weights[i], weights[i]
		}
	}
	x.depth = make([]int32, n)
	if weights != nil {
		x.wdepth = make([]float64, n)
	}
	x.order = make([]int32, n)
	x.comp = make([]int32, n)
	for i := range x.order {
		x.order[i] = -1
		x.comp[i] = -1
	}
	x.euler = x.euler[:0]
	comp := int32(0)
	// Iterative DFS with an explicit stack; emits the Euler tour.
	type frame struct {
		v    uint32
		next int64
	}
	for root := 0; root < n; root++ {
		if x.order[root] != -1 {
			continue
		}
		stack := []frame{{uint32(root), offs[root]}}
		x.comp[root] = comp
		x.order[root] = int32(len(x.euler))
		x.euler = append(x.euler, uint32(root))
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			advanced := false
			for f.next < offs[f.v+1] {
				i := f.next
				u := flat[i]
				f.next++
				if x.order[u] != -1 {
					continue
				}
				x.depth[u] = x.depth[f.v] + 1
				if weights != nil {
					x.wdepth[u] = x.wdepth[f.v] + flatW[i]
				}
				x.comp[u] = comp
				x.order[u] = int32(len(x.euler))
				x.euler = append(x.euler, u)
				stack = append(stack, frame{u, offs[u]})
				advanced = true
				break
			}
			if !advanced {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					x.euler = append(x.euler, stack[len(stack)-1].v)
				}
			}
		}
		comp++
	}
	x.buildSparse()
	return int(comp)
}

// buildSparse fills the flattened sparse table: row 0 is the Euler tour,
// row k the elementwise depth-min of row k-1 with itself shifted by
// 2^(k-1). Rows build in order, but every element of a row is independent,
// so each row is one parallel sweep on the pool — the index build is
// O(m log m) work at O(log m) additional depth, with a single backing
// allocation reused across rebuilds. Values are bit-identical to the
// serial per-row construction: the min-scan reads only the previous row.
func (x *lcaIndex) buildSparse() {
	m := len(x.euler)
	x.sstride = m
	if m == 0 {
		x.sparse = x.sparse[:0]
		return
	}
	levels := 1
	for 1<<levels <= m {
		levels++
	}
	if cap(x.sparse) < levels*m {
		x.sparse = make([]uint32, levels*m)
	}
	x.sparse = x.sparse[:levels*m]
	copy(x.sparse[:m], x.euler)
	depth := x.depth
	for k := 1; k < levels; k++ {
		half := 1 << (k - 1)
		prev := x.sparse[(k-1)*m : k*m]
		row := x.sparse[k*m : k*m+m-2*half+1]
		x.pool.ForRange(x.workers, len(row), func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := prev[i], prev[i+half]
				if depth[a] <= depth[b] {
					row[i] = a
				} else {
					row[i] = b
				}
			}
		})
	}
}

// LCA returns the lowest common ancestor of u and v, which must lie in the
// same component.
func (x *lcaIndex) LCA(u, v uint32) uint32 {
	a, b := x.order[u], x.order[v]
	if a > b {
		a, b = b, a
	}
	k := bits.Len32(uint32(b-a+1)) - 1
	base := k * x.sstride
	p, q := x.sparse[base+int(a)], x.sparse[base+int(b)-(1<<k)+1]
	if x.depth[p] <= x.depth[q] {
		return p
	}
	return q
}
