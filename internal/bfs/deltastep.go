package bfs

import (
	"context"
	"math"
	"sync/atomic"

	"mpx/internal/graph"
	"mpx/internal/parallel"
)

// Direction selects how the weighted bucket-relaxation rounds traverse the
// graph; it mirrors the unweighted partition's core.Direction. Push rounds
// relax the out-edges of the frontier through an atomic minimum on the
// IEEE distance bits; pull rounds have every unsettled vertex scan its own
// in-neighborhood for frontier members and take the minimum candidate
// distance itself (only the owner writes its word, so the round is
// race-free). Both directions drive the same monotone min-plus fixpoint,
// and the final (Dist, Parent) output is bit-identical across directions
// and worker counts — see docs/determinism.md for the argument.
type Direction int

const (
	// DirectionAuto switches per round with a Beamer-style heuristic:
	// push while the frontier's outgoing arcs are few, pull once they
	// rival the unsettled cohort's arcs, and back as the bucket drains.
	DirectionAuto Direction = iota
	// DirectionPush pins every round to top-down atomic-min relaxation.
	DirectionPush
	// DirectionPull pins every round to bottom-up neighborhood scans.
	DirectionPull
)

// Beamer-style switch constants for the weighted rounds, recalibrated like
// the unweighted partition's: a pull round pays the arcs of the whole
// unsettled cohort (it cannot early-exit the scan, the true minimum is
// needed), so it only wins once the frontier's arcs are a sizable fraction
// of the cohort's and the frontier itself is dense.
const (
	wpullEnter   = 2 // enter pull when frontierArcs*wpullEnter > unsettledArcs
	wpullKeep    = 4 // stay pulling while frontierArcs*wpullKeep > unsettledArcs
	wpullMinFrac = 8 // and only when the frontier holds > n/wpullMinFrac vertices
)

// DeltaStepping computes single-source shortest paths on a positively
// weighted graph with the Meyer–Sanders Δ-stepping algorithm: vertices are
// bucketed by ⌊dist/Δ⌋ and each bucket is settled by parallel relaxation
// rounds. It is the parallel engine behind the weighted partition
// experiment (the paper's Section 6 notes that parallel depth in the
// weighted setting is the open question — Δ-stepping is the standard
// practical answer, and the experiment measures its round count).
//
// delta <= 0 picks the common heuristic Δ = max weight / average degree,
// clamped to at least the minimum edge weight.
func DeltaStepping(g *graph.WeightedGraph, source uint32, delta float64, workers int) *WeightedResult {
	init := make([]float64, g.NumVertices())
	for i := range init {
		init[i] = math.Inf(1)
	}
	init[source] = 0
	// Cancellation is the engine's only error, and a nil ctx never cancels.
	res, _ := DeltaSteppingMultiPoolDirCtx(nil, nil, g, init, delta, workers, DirectionAuto)
	return res
}

// DeltaSteppingMultiPoolDirCtx is Δ-stepping from an implicit
// super-source: init[v] gives the starting distance of v (+Inf for
// non-sources). This is exactly the shifted-shortest-path primitive of the
// paper's Section 5 lifted to weighted graphs: PartitionWeightedParallel
// passes init[u] = δ_max − δ_u. The bucket-relaxation rounds execute on
// the given persistent worker pool (nil means parallel.Default()) with the
// given traversal Direction (DirectionAuto switches per round), and the
// per-worker relaxation buffers are reused across rounds.
//
// Distances converge to the unique fixpoint of dist[v] = min(init[v],
// min_u dist[u]+w(u,v)) — every relaxation order reaches the same IEEE bit
// patterns because the float additions are identical and min never rounds
// — and parents are then recovered by a single deterministic pull pass
// (resolveParents), so the (Dist, Parent) output is bit-identical across
// directions and worker counts. The Rounds and Relaxed counters describe
// the schedule actually executed and may differ between directions.
//
// ctx (nil means never cancelled) is polled between bucket-relaxation
// rounds — never inside a relaxation kernel — and a cancelled search
// returns (nil, ctx.Err()) with no partial result.
func DeltaSteppingMultiPoolDirCtx(ctx context.Context, pool *parallel.Pool, g *graph.WeightedGraph, init []float64, delta float64, workers int, dir Direction) (*WeightedResult, error) {
	n := g.NumVertices()
	res := &WeightedResult{
		Dist:   make([]float64, n),
		Parent: make([]uint32, n),
	}
	if n == 0 {
		return res, nil
	}
	minW, maxW := math.Inf(1), 0.0
	var arcs int64
	for v := 0; v < n; v++ {
		_, ws := g.Neighbors(uint32(v))
		for _, w := range ws {
			if w < minW {
				minW = w
			}
			if w > maxW {
				maxW = w
			}
			arcs++
		}
	}
	if delta <= 0 {
		if arcs == 0 {
			delta = 1
		} else {
			avgDeg := float64(arcs) / float64(n)
			delta = maxW / math.Max(avgDeg, 1)
			if delta < minW {
				delta = minW
			}
		}
	}
	for i := range res.Dist {
		res.Dist[i] = init[i]
		res.Parent[i] = uint32(i)
	}

	// distBits holds the distance as atomically-updatable bits; positive
	// float64 ordering matches uint64 ordering of their IEEE bits.
	distBits := make([]uint64, n)
	for i := range distBits {
		distBits[i] = math.Float64bits(res.Dist[i])
	}

	bucketOf := func(d float64) int { return int(d / delta) }
	var buckets [][]uint32
	inBucket := make([]int32, n) // bucket index+1 the vertex was last queued in
	for v := 0; v < n; v++ {
		if !math.IsInf(init[v], 1) {
			b := bucketOf(init[v])
			for b >= len(buckets) {
				buckets = append(buckets, nil)
			}
			buckets[b] = append(buckets[b], uint32(v))
			inBucket[v] = int32(b) + 1
		}
	}
	if len(buckets) == 0 {
		return res, nil
	}

	relaxed := int64(0)
	sc := relaxScratch{cohortCur: -1, unsettledArcs: arcs, stamp: make([]int32, n)}
	push := func(v uint32, b int) {
		for b >= len(buckets) {
			buckets = append(buckets, nil)
		}
		buckets[b] = append(buckets[b], v)
	}
	pulling := false
	cur := 0
	for cur < len(buckets) {
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		// Settle bucket cur with relaxation rounds until it stops changing.
		frontier := buckets[cur]
		buckets[cur] = nil
		for len(frontier) > 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			res.Rounds++
			switch dir {
			case DirectionPush:
				pulling = false
			case DirectionPull:
				pulling = true
			default:
				// The arc count costs a reduction over the frontier, so it
				// is only computed when the cheap size gate leaves pull
				// reachable (or a pull streak needs its keep check); thin
				// frontiers stay on push for free.
				fr := frontier
				if pulling || len(fr) > n/wpullMinFrac {
					frontierArcs := pool.ReduceInt64(workers, len(fr), func(i int) int64 {
						return int64(g.Degree(fr[i]))
					})
					if pulling {
						pulling = frontierArcs*wpullKeep > sc.unsettledArcs
					} else {
						pulling = frontierArcs*wpullEnter > sc.unsettledArcs
					}
				} else {
					pulling = false
				}
			}
			if pulling {
				ensureCohort(pool, g, distBits, delta, cur, workers, &sc)
				frontier = pullFrontier(g, frontier, distBits, cur, workers,
					&relaxed, push, inBucket, bucketOf, &sc, pool)
			} else {
				frontier = relaxFrontier(g, frontier, distBits, cur, workers,
					&relaxed, push, inBucket, bucketOf, &sc, pool)
			}
		}
		cur++
	}
	for v := 0; v < n; v++ {
		res.Dist[v] = math.Float64frombits(distBits[v])
	}
	resolveParents(pool, g, init, res.Dist, res.Parent, workers)
	res.Relaxed = relaxed
	return res, nil
}

// WeightedResult is the output of a weighted parallel search.
type WeightedResult struct {
	Dist    []float64
	Parent  []uint32
	Rounds  int
	Relaxed int64
}

// enq records a distance improvement: vertex v now falls in bucket b.
type enq struct {
	v uint32
	b int
}

// relaxScratch is the reusable round state of the bucket relaxation:
// per-worker improvement buffers, the double-buffered same-bucket output
// frontier, the stamp array backing the allocation-free dedup, and the
// pull-side frontier bitmap and unsettled cohort.
type relaxScratch struct {
	buffers [][]enq
	same    [2][]uint32
	flip    int
	stamp   []int32
	epoch   int32
	// inFrontier is the bit-packed frontier membership map pull rounds scan
	// against (same parallel.Bitset the unweighted partition and the
	// frontier package's dense subsets build on).
	inFrontier *parallel.Bitset
	// cohort is the unsettled vertex list pull rounds iterate: every vertex
	// whose tentative distance falls in the current or a later bucket. It
	// only shrinks (when the bucket clock advances), so it is filtered, not
	// rebuilt, and double-buffered through cohortSpare.
	cohort        []uint32
	cohortSpare   []uint32
	cohortCur     int
	unsettledArcs int64
}

// collect merges the per-worker improvement buffers: improvements staying
// in (or before) the current bucket become the next same-bucket frontier
// (double-buffered against the one just consumed), later ones are enqueued
// into their buckets. Dedup is needed only after racing push rounds, where
// several proposers can improve one vertex in the same round; pull rounds
// append each vertex at most once (by its owner).
func (sc *relaxScratch) collect(buffers [][]enq, cur int, push func(uint32, int), inBucket []int32, needDedup bool) []uint32 {
	same := sc.same[sc.flip][:0]
	sc.flip ^= 1
	for _, buf := range buffers {
		for _, e := range buf {
			if e.b <= cur {
				// Still in (or before) the current bucket: re-relax now.
				same = append(same, e.v)
			} else if inBucket[e.v] != int32(e.b)+1 {
				inBucket[e.v] = int32(e.b) + 1
				push(e.v, e.b)
			}
		}
	}
	if needDedup {
		same = sc.dedup(same)
	}
	sc.same[sc.flip^1] = same[:0]
	return same
}

// dedup removes duplicate vertex ids with an epoch-stamped array (a vertex
// improved by several frontier members in one round appears once in the
// next round); no per-round allocation, unlike a map.
func (sc *relaxScratch) dedup(vs []uint32) []uint32 {
	if len(vs) < 2 {
		return vs
	}
	if sc.epoch == math.MaxInt32 {
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	out := vs[:0]
	for _, v := range vs {
		if sc.stamp[v] != sc.epoch {
			sc.stamp[v] = sc.epoch
			out = append(out, v)
		}
	}
	return out
}

// relaxFrontier is the push (top-down) round: it relaxes all edges out of
// the frontier, lowering target distances with CAS on the IEEE bits
// (order-preserving for non-negative floats). The relaxation is a fixpoint
// iteration, so races only cost extra rounds, never wrong distances;
// parents are not tracked here — they are recovered deterministically from
// the settled distances by resolveParents.
func relaxFrontier(g *graph.WeightedGraph, frontier []uint32, distBits []uint64,
	cur int, workers int, relaxed *int64,
	push func(uint32, int), inBucket []int32, bucketOf func(float64) int,
	sc *relaxScratch, pool *parallel.Pool) []uint32 {

	w := parallel.Workers(workers, len(frontier))
	if cap(sc.buffers) < w {
		sc.buffers = make([][]enq, w)
	}
	buffers := sc.buffers[:w]
	nf := len(frontier)
	pool.Run(w, func(k int) {
		lo := k * nf / w
		hi := (k + 1) * nf / w
		buf := buffers[k][:0]
		var local int64
		for i := lo; i < hi; i++ {
			v := frontier[i]
			dv := math.Float64frombits(atomic.LoadUint64(&distBits[v]))
			nbrs, ws := g.Neighbors(v)
			for j, u := range nbrs {
				local++
				nd := dv + ws[j]
				for {
					oldBits := atomic.LoadUint64(&distBits[u])
					if math.Float64frombits(oldBits) <= nd {
						break
					}
					if atomic.CompareAndSwapUint64(&distBits[u], oldBits, math.Float64bits(nd)) {
						buf = append(buf, enq{u, bucketOf(nd)})
						break
					}
				}
			}
		}
		buffers[k] = buf
		atomic.AddInt64(relaxed, local)
	})
	return sc.collect(buffers, cur, push, inBucket, true)
}

// pullFrontier is the pull (bottom-up) round: every vertex of the
// unsettled cohort scans its own neighborhood for frontier members and
// takes the minimum candidate distance serially — the same min the push
// round races through CAS, computed race-free because only the owning
// vertex writes its distance word. Frontier membership is a bit-packed
// parallel.Bitset reset in O(n/64).
func pullFrontier(g *graph.WeightedGraph, frontier []uint32, distBits []uint64,
	cur int, workers int, relaxed *int64,
	push func(uint32, int), inBucket []int32, bucketOf func(float64) int,
	sc *relaxScratch, pool *parallel.Pool) []uint32 {

	n := g.NumVertices()
	if sc.inFrontier == nil {
		sc.inFrontier = parallel.NewBitset(n)
	} else {
		parallel.FillPool(pool, workers, sc.inFrontier.Words(), 0)
	}
	inF := sc.inFrontier
	fr := frontier
	pool.ForRange(workers, len(fr), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			inF.SetAtomic(fr[i])
		}
	})
	cohort := sc.cohort
	w := parallel.Workers(workers, len(cohort))
	if cap(sc.buffers) < w {
		sc.buffers = make([][]enq, w)
	}
	buffers := sc.buffers[:w]
	nc := len(cohort)
	pool.Run(w, func(k int) {
		lo := k * nc / w
		hi := (k + 1) * nc / w
		buf := buffers[k][:0]
		var local int64
		for i := lo; i < hi; i++ {
			u := cohort[i]
			du := math.Float64frombits(atomic.LoadUint64(&distBits[u]))
			best := du
			nbrs, ws := g.Neighbors(u)
			for j, v := range nbrs {
				if !inF.Get(v) {
					continue
				}
				local++
				if cand := math.Float64frombits(atomic.LoadUint64(&distBits[v])) + ws[j]; cand < best {
					best = cand
				}
			}
			if best < du {
				atomic.StoreUint64(&distBits[u], math.Float64bits(best))
				buf = append(buf, enq{u, bucketOf(best)})
			}
		}
		buffers[k] = buf
		atomic.AddInt64(relaxed, local)
	})
	return sc.collect(buffers, cur, push, inBucket, false)
}

// ensureCohort (re)builds the pull cohort: the unsettled vertices, i.e.
// those whose current tentative distance falls in bucket cur or later
// (+Inf included). The unsettled set is stable within one bucket —
// settlement happens only when the bucket clock advances — so consecutive
// pull rounds (and push rounds in between) reuse the list; on a clock
// advance the previous cohort is filtered in place (it only ever shrinks),
// and the unsettled arc count driving the Beamer switch is refreshed.
func ensureCohort(pool *parallel.Pool, g *graph.WeightedGraph, distBits []uint64,
	delta float64, cur int, workers int, sc *relaxScratch) {

	unsettled := func(v uint32) bool {
		d := math.Float64frombits(distBits[v])
		return math.IsInf(d, 1) || int(d/delta) >= cur
	}
	switch {
	case sc.cohort == nil:
		sc.cohort = pool.PackInto(workers, len(distBits), func(i int) bool {
			return unsettled(uint32(i))
		}, sc.cohortSpare)
		sc.cohortSpare = nil
	case sc.cohortCur != cur:
		old := sc.cohort
		sc.cohort = pool.FilterUint32(workers, old, unsettled, sc.cohortSpare)
		sc.cohortSpare = old[:0]
	default:
		return
	}
	sc.cohortCur = cur
	co := sc.cohort
	sc.unsettledArcs = pool.ReduceInt64(workers, len(co), func(i int) int64 {
		return int64(g.Degree(co[i]))
	})
}

// resolveParents recovers the shortest-path forest from the settled
// distances in one deterministic pull pass: every reached non-source
// vertex v takes the minimum packed (candidate distance bits, proposer id)
// key over its in-neighborhood — candidate u proposes key
// (Float64bits(dist[u]+w(u,v)), u), compared lexicographically — and
// adopts the winner as parent when its candidate distance equals dist[v]
// bit-exactly. At the fixpoint such a witness normally exists (the winning
// relaxation computed dist[v] as dist[u]+w from u's final distance, the
// identical float expression).
//
// Acyclicity needs care in floating point: when an edge weight is below
// half an ulp of the neighbor's distance, dist[u]+w rounds to dist[u], so
// adjacent vertices can hold bit-equal distances and each would explain
// the other. A candidate is therefore admitted only if it is strictly
// closer than v, or bit-equal with a smaller id — parent chains then
// strictly decrease (dist, id) lexicographically, so the forest is
// acyclic; a vertex whose only witnesses are equal-distance higher ids
// keeps itself as parent (it roots its own tree, still a valid forest).
// Sources (init[v] == dist[v]) and unreached vertices parent themselves.
// Because the pass is a pure function of the deterministic distances,
// Parent is bit-identical across worker counts and traversal directions,
// which is what makes the weighted partition's center assignment
// deterministic by construction.
func resolveParents(pool *parallel.Pool, g *graph.WeightedGraph, init, dist []float64, parent []uint32, workers int) {
	n := g.NumVertices()
	pool.ForRange(workers, n, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			parent[v] = uint32(v)
			dv := dist[v]
			if math.IsInf(dv, 1) || init[v] == dv {
				continue // unreached, or the vertex's own start won
			}
			dvBits := math.Float64bits(dv)
			bestBits := ^uint64(0)
			bestU := uint32(v)
			nbrs, ws := g.Neighbors(uint32(v))
			for j, u := range nbrs {
				db := math.Float64bits(dist[u])
				if db > dvBits || (db == dvBits && u >= uint32(v)) {
					continue // would not strictly decrease (dist, id)
				}
				cb := math.Float64bits(dist[u] + ws[j])
				if cb < bestBits || (cb == bestBits && u < bestU) {
					bestBits, bestU = cb, u
				}
			}
			if bestBits == dvBits {
				parent[v] = bestU
			}
		}
	})
}
