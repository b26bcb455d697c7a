// Package frontier is a Ligra-style frontier-parallel graph-processing
// layer (Shun & Blelloch 2013, the paper's reference [26] for practical
// parallel BFS): vertex subsets with automatic sparse/dense representation
// switching and an EdgeMap that picks top-down (sparse) or bottom-up
// (dense) traversal by frontier size. Dense subsets are bit-packed
// (parallel.Bitset), the same bitset type the low-level hybrid BFS and the
// decomposition engine build on — the traversal machinery is shared across
// the three, and this package's EdgeMap is cross-tested against them.
//
// All rounds execute on a persistent parallel.Pool (Options.Pool, nil
// meaning the shared default), and a Traversal held across rounds owns
// every piece of per-round scratch — output buffers, claim bitsets,
// recycled Subset shells — so a steady-state round performs no O(n)
// allocation: frontier compaction is an offset scan plus a parallel copy
// into a pre-sized reused buffer.
package frontier

import (
	"math/bits"
	"sync/atomic"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// Subset is a set of vertices of a fixed-size universe, stored sparse
// (id list) or dense (bit-packed bitmap) depending on size.
type Subset struct {
	n      int
	sparse []uint32 // valid when dense == nil
	dense  *parallel.Bitset
	count  int
	// arcs caches the summed out-degree of the members (the Beamer
	// direction-switch statistic); valid when arcsOK. EdgeMap fills it
	// incrementally while building its output so the next round's switch
	// decision costs nothing.
	arcs   int64
	arcsOK bool
}

// NewSubset builds a sparse subset from ids (not copied; caller yields
// ownership). Duplicate ids must not be passed.
func NewSubset(n int, ids []uint32) *Subset {
	return &Subset{n: n, sparse: ids, count: len(ids)}
}

// NewDenseSubset builds a dense subset from a bit-packed bitmap (ownership
// yielded).
func NewDenseSubset(bitmap *parallel.Bitset) *Subset {
	return &Subset{n: bitmap.Len(), dense: bitmap, count: bitmap.Count(0)}
}

// Len returns the subset size.
func (s *Subset) Len() int { return s.count }

// IsEmpty reports whether the subset is empty.
func (s *Subset) IsEmpty() bool { return s.count == 0 }

// Contains reports membership.
func (s *Subset) Contains(v uint32) bool {
	if s.dense != nil {
		return s.dense.Get(v)
	}
	for _, u := range s.sparse {
		if u == v {
			return true
		}
	}
	return false
}

// Vertices materializes the member list (sorted for dense subsets, in
// insertion order for sparse ones).
func (s *Subset) Vertices() []uint32 {
	if s.dense == nil {
		out := make([]uint32, len(s.sparse))
		copy(out, s.sparse)
		return out
	}
	return s.dense.Members(make([]uint32, 0, s.count))
}

// arcCount returns the summed out-degree of the members, computing and
// caching it on first use. Subsets built by EdgeMap carry the count from
// construction, so the hot path never rescans a frontier.
func (s *Subset) arcCount(g *graph.Graph, pool *parallel.Pool, workers int) int64 {
	if s.arcsOK {
		return s.arcs
	}
	var arcs int64
	if s.dense != nil {
		offsets := g.Offsets()
		words := s.dense.Words()
		arcs = pool.ReduceInt64(workers, len(words), func(wi int) int64 {
			w := words[wi]
			base := uint32(wi) << 6
			var local int64
			for ; w != 0; w &= w - 1 {
				v := base + uint32(bits.TrailingZeros64(w))
				local += offsets[v+1] - offsets[v]
			}
			return local
		})
	} else {
		arcs = pool.ReduceInt64(workers, len(s.sparse), func(i int) int64 {
			return int64(g.Degree(s.sparse[i]))
		})
	}
	s.arcs = arcs
	s.arcsOK = true
	return arcs
}

// toBitset returns the bit-packed view, building it into scratch (reset
// first) if the subset is sparse. scratch may be nil.
func (s *Subset) toBitset(scratch *parallel.Bitset, pool *parallel.Pool, workers int) *parallel.Bitset {
	if s.dense != nil {
		return s.dense
	}
	if scratch == nil || scratch.Len() != s.n {
		scratch = parallel.NewBitset(s.n)
	} else {
		parallel.FillPool(pool, workers, scratch.Words(), 0)
	}
	for _, v := range s.sparse {
		scratch.Set(v)
	}
	return scratch
}

// Options tune EdgeMap.
type Options struct {
	// Workers caps logical parallelism (the deterministic block
	// decomposition); <= 0 means GOMAXPROCS.
	Workers int
	// Pool is the persistent worker pool rounds execute on; nil means the
	// shared parallel.Default() pool. Construct one pool per run and pass
	// it everywhere — workers are reused across every round of every loop.
	Pool *parallel.Pool
	// Threshold is the Beamer direction-switch ratio; frontier out-degree
	// above arcs/Threshold triggers the dense sweep. 0 means 20.
	Threshold int64
	// ForceSparse / ForceDense pin the traversal direction (for tests).
	ForceSparse, ForceDense bool
}

// Traversal carries the reusable scratch state for a frontier loop over one
// graph: the claim bitset that deduplicates sparse admissions, a spare dense
// bitmap and a spare sparse buffer recycled between rounds, recycled Subset
// shells, the per-worker output buffers, and their offset/arc-count arrays.
// Reusing a Traversal across EdgeMap rounds removes the per-round O(n)
// allocations the one-shot entry point pays: a steady-state round allocates
// nothing beyond the submitted closures.
type Traversal struct {
	g           *graph.Graph
	claimed     *parallel.Bitset // dedup for sparse rounds; cleared per-member
	front       *parallel.Bitset // sparse->dense conversion scratch
	spare       *parallel.Bitset // next dense output, recycled via Recycle
	spareSparse []uint32         // next sparse output buffer, recycled via Recycle
	buffers     [][]uint32       // per-worker sparse output buffers
	arcCounts   []int64          // per-worker admitted-arc counters
	offs        []int            // per-worker output offsets (scan of buffer lengths)
	memberBuf   []uint32         // dense-frontier member materialization scratch
	freeSubs    []*Subset        // recycled Subset shells
}

// NewTraversal allocates scratch for frontier loops over g.
func NewTraversal(g *graph.Graph) *Traversal {
	return &Traversal{g: g, claimed: parallel.NewBitset(g.NumVertices())}
}

// Recycle hands a dead subset's buffers back for reuse by later rounds:
// its dense bitmap or sparse id buffer, and the Subset shell itself. Call
// it on the previous frontier once EdgeMap has produced the next one; the
// subset must not be used afterwards.
func (t *Traversal) Recycle(s *Subset) {
	if s == nil {
		return
	}
	if s.dense != nil {
		if t.spare == nil && s.dense != t.front {
			t.spare = s.dense
		}
	} else if s.sparse != nil && t.spareSparse == nil {
		t.spareSparse = s.sparse[:0]
	}
	*s = Subset{}
	if len(t.freeSubs) < 4 {
		t.freeSubs = append(t.freeSubs, s)
	}
}

// takeSubset returns a recycled Subset shell, or a fresh one.
func (t *Traversal) takeSubset() *Subset {
	if n := len(t.freeSubs); n > 0 {
		s := t.freeSubs[n-1]
		t.freeSubs = t.freeSubs[:n-1]
		return s
	}
	return &Subset{}
}

// membersView returns the member list without copying when possible: the
// backing id slice for sparse subsets, a reused materialization buffer for
// dense ones. The caller must not modify or retain the view.
func (t *Traversal) membersView(s *Subset, pool *parallel.Pool, workers int) []uint32 {
	if s.dense == nil {
		return s.sparse
	}
	t.memberBuf = s.dense.MembersInto(pool, workers, t.memberBuf)
	return t.memberBuf
}

// EdgeMap applies update(src, dst) over all edges out of the frontier whose
// target passes cond(dst). update returns true when dst should join the
// output frontier; it must be atomic/idempotent (it may race on dense
// sweeps exactly as in Ligra). The returned subset contains each admitted
// target exactly once.
func (t *Traversal) EdgeMap(front *Subset, cond func(uint32) bool,
	update func(src, dst uint32) bool, opts Options) *Subset {

	g := t.g
	if front.IsEmpty() {
		s := t.takeSubset()
		s.n = g.NumVertices()
		return s
	}
	threshold := opts.Threshold
	if threshold <= 0 {
		threshold = 20
	}
	frontierArcs := front.arcCount(g, opts.Pool, opts.Workers)
	useDense := !opts.ForceSparse &&
		(opts.ForceDense || frontierArcs > g.NumArcs()/threshold)
	if useDense {
		return t.edgeMapDense(front, cond, update, opts)
	}
	return t.edgeMapSparse(front, cond, update, opts)
}

// EdgeMap is the one-shot entry point: it allocates fresh scratch per call.
// Loops should hold a Traversal instead.
func EdgeMap(g *graph.Graph, front *Subset, cond func(uint32) bool,
	update func(src, dst uint32) bool, opts Options) *Subset {
	return NewTraversal(g).EdgeMap(front, cond, update, opts)
}

// edgeMapSparse walks out-edges of frontier members (top-down). Admissions
// are deduplicated with an atomic claim on the shared bitset. The output
// frontier is compacted with an offset scan over the per-worker buffer
// lengths and a parallel copy into one pre-sized reused buffer; the claim
// bits are cleared in the same parallel pass (O(out), not O(n)).
func (t *Traversal) edgeMapSparse(front *Subset, cond func(uint32) bool,
	update func(src, dst uint32) bool, opts Options) *Subset {

	g := t.g
	pool := opts.Pool
	members := t.membersView(front, pool, opts.Workers)
	w := parallel.Workers(opts.Workers, len(members))
	if cap(t.buffers) < w {
		t.buffers = make([][]uint32, w)
		t.arcCounts = make([]int64, w)
		t.offs = make([]int, w+1)
	}
	buffers := t.buffers[:w]
	arcCounts := t.arcCounts[:w]
	offs := t.offs[:w+1]
	claimed := t.claimed
	offsets := g.Offsets()
	nm := len(members)
	pool.Run(w, func(k int) {
		lo := k * nm / w
		hi := (k + 1) * nm / w
		buf := buffers[k][:0]
		var arcs int64
		for i := lo; i < hi; i++ {
			v := members[i]
			for _, u := range g.Neighbors(v) {
				if !cond(u) {
					continue
				}
				if update(v, u) {
					// Deduplicate output admission with an atomic claim.
					if claimed.TrySetAtomic(u) {
						buf = append(buf, u)
						arcs += offsets[u+1] - offsets[u]
					}
				}
			}
		}
		buffers[k] = buf
		arcCounts[k] = arcs
	})
	var outArcs int64
	offs[0] = 0
	for k, b := range buffers {
		offs[k+1] = offs[k] + len(b)
		outArcs += arcCounts[k]
	}
	total := offs[w]
	out := t.spareSparse
	t.spareSparse = nil
	out = parallel.GrowUint32(out, total)
	if total < parallel.CompactCutoff || w == 1 {
		for k, b := range buffers {
			copy(out[offs[k]:], b)
			// Reset the claim bits so the next round starts clean.
			for _, u := range b {
				claimed.Clear(u)
			}
		}
	} else {
		pool.Run(w, func(k int) {
			copy(out[offs[k]:], buffers[k])
			for _, u := range buffers[k] {
				claimed.ClearAtomic(u)
			}
		})
	}
	s := t.takeSubset()
	s.n = g.NumVertices()
	s.sparse = out
	s.count = total
	s.arcs, s.arcsOK = outArcs, true
	return s
}

// edgeMapDense scans all vertices, pulling from frontier members
// (bottom-up); each passing vertex probes its own neighborhood. The output
// bitmap comes from the recycled spare when one is available.
func (t *Traversal) edgeMapDense(front *Subset, cond func(uint32) bool,
	update func(src, dst uint32) bool, opts Options) *Subset {

	g := t.g
	pool := opts.Pool
	n := g.NumVertices()
	bitmap := front.toBitset(t.front, pool, opts.Workers)
	if front.dense == nil {
		t.front = bitmap // keep the conversion scratch for reuse
	}
	out := t.spare
	if out == nil || out.Len() != n {
		out = parallel.NewBitset(n)
	} else {
		parallel.FillPool(pool, opts.Workers, out.Words(), 0)
	}
	t.spare = nil
	offsets := g.Offsets()
	var outArcs int64
	var outCount int64
	pool.ForRange(opts.Workers, n, func(lo, hi int) {
		var arcs int64
		var count int64
		for v := lo; v < hi; v++ {
			u := uint32(v)
			if !cond(u) {
				continue
			}
			for _, src := range g.Neighbors(u) {
				if bitmap.Get(src) && update(src, u) {
					out.SetAtomic(u)
					arcs += offsets[u+1] - offsets[u]
					count++
					break
				}
			}
		}
		atomic.AddInt64(&outArcs, arcs)
		atomic.AddInt64(&outCount, count)
	})
	s := t.takeSubset()
	s.n = n
	s.dense = out
	s.count = int(outCount)
	s.arcs, s.arcsOK = outArcs, true
	return s
}

// VertexMap applies f to every member of the subset in parallel.
func VertexMap(s *Subset, workers int, f func(uint32)) {
	members := s.Vertices()
	parallel.For(workers, len(members), func(i int) { f(members[i]) })
}

// VertexFilter returns the members for which keep returns true, in member
// order. It runs on the shared default pool; use VertexFilterPool to pick
// the pool and worker count. keep may be invoked twice per member and
// concurrently (the parallel two-pass compaction), so it must be pure and
// safe for concurrent use.
func VertexFilter(s *Subset, keep func(uint32) bool) *Subset {
	return VertexFilterPool(s, keep, Options{})
}

// VertexFilterPool is VertexFilter on the given pool: the members are
// compacted with the same two-pass count/scan/copy the frontier rounds
// use (parallel.FilterUint32), so the output order is identical at every
// worker count — and keep carries the same purity/concurrency contract.
// The weighted Δ-stepping engine filters its unsettled pull cohort
// through the same primitive.
func VertexFilterPool(s *Subset, keep func(uint32) bool, opts Options) *Subset {
	pool := opts.Pool
	if pool == nil {
		pool = parallel.Default()
	}
	out := pool.FilterUint32(opts.Workers, s.Vertices(), keep, nil)
	return NewSubset(s.n, out)
}

// BFS computes distances from source using EdgeMap — the canonical Ligra
// program, kept as the executable specification the low-level BFS in
// package bfs is cross-tested against.
func BFS(g *graph.Graph, source uint32, opts Options) []int32 {
	n := g.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	visited := parallel.NewBitset(n)
	dist[source] = 0
	visited.Set(source)
	tr := NewTraversal(g)
	front := NewSubset(n, []uint32{source})
	depth := int32(0)
	for !front.IsEmpty() {
		depth++
		d := depth
		next := tr.EdgeMap(front,
			func(u uint32) bool { return !visited.GetAtomic(u) },
			func(src, dst uint32) bool {
				if visited.TrySetAtomic(dst) {
					dist[dst] = d
					return true
				}
				return false
			}, opts)
		tr.Recycle(front)
		front = next
	}
	return dist
}
