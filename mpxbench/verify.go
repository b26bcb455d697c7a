package main

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"mpx/internal/apps/blocks"
	"mpx/internal/apps/connectivity"
	"mpx/internal/apps/lowstretch"
	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
)

// levelStat and buildResp mirror the JSON the service returns for a build
// (docs/mpxd.md); the benchmark decodes responses into them and derives
// the same shape from direct library calls to compare the two.
type levelStat struct {
	Level       int     `json:"level"`
	N           int     `json:"n"`
	M           int64   `json:"m"`
	Clusters    int     `json:"clusters"`
	CutEdges    int64   `json:"cutEdges"`
	CutFraction float64 `json:"cutFraction"`
	QuotientN   int     `json:"quotientN"`
}

type buildResp struct {
	App         string      `json:"app"`
	Beta        float64     `json:"beta"`
	Seed        uint64      `json:"seed"`
	Levels      int         `json:"levels"`
	TreeEdges   int         `json:"treeEdges"`
	Blocks      int         `json:"blocks"`
	Components  int         `json:"components"`
	QueryLevels int         `json:"queryLevels"`
	Fingerprint string      `json:"fingerprint"`
	Stats       []levelStat `json:"stats"`
}

type queryResp struct {
	Op       string   `json:"op"`
	Count    int      `json:"count"`
	Dists    []int32  `json:"dists"`
	Clusters []uint32 `json:"clusters"`
	Same     []bool   `json:"same"`
	Checksum string   `json:"checksum"`
}

// FNV-1a folds over the decomposition outputs: the fingerprints the
// service puts in build responses and the checksums of query responses.
const (
	fnvOffset uint64 = 0xcbf29ce484222325
	fnvPrime  uint64 = 0x00000100000001b3
)

func fnvU64(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime
		x >>= 8
	}
	return h
}

func hex16(x uint64) string { return fmt.Sprintf("%016x", x) }

func statsOf(stats []hier.LevelStat) []levelStat {
	out := make([]levelStat, len(stats))
	for i, st := range stats {
		out[i] = levelStat{st.Level, st.N, st.M, st.Clusters, st.CutEdges, st.CutFraction, st.QuotientN}
	}
	return out
}

// libraryBuild computes, by direct library calls, what a cold build
// response for (g, app, beta, seed) must contain. The lowstretch build's
// incremental forest is returned so the query verifier can reuse it.
func libraryBuild(pool *parallel.Pool, g *graph.Graph, app string, beta float64, seed uint64) (buildResp, *lowstretch.Incremental, error) {
	want := buildResp{App: app, Beta: beta, Seed: seed}
	switch app {
	case "lowstretch":
		inc, err := lowstretch.BuildIncrementalPoolCtx(nil, pool, g, beta, seed, 0, core.DirectionAuto)
		if err != nil {
			return want, nil, err
		}
		t := inc.Tree()
		h := fnvU64(fnvOffset, uint64(t.Levels))
		for _, e := range t.Edges {
			h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
		}
		want.Levels, want.TreeEdges, want.Fingerprint, want.Stats = t.Levels, len(t.Edges), hex16(h), statsOf(t.Stats)
		return want, inc, nil
	case "blocks":
		bd, err := blocks.DecomposePoolCtx(nil, pool, g, beta, seed, 0, 0, core.DirectionAuto)
		if err != nil {
			return want, nil, err
		}
		h := fnvU64(fnvOffset, uint64(len(bd.Blocks)))
		for _, b := range bd.Blocks {
			h = fnvU64(h, uint64(len(b.Edges))<<32|uint64(uint32(b.MaxComponentRadius)))
			h = fnvU64(h, uint64(b.Clusters))
			for _, e := range b.Edges {
				h = fnvU64(h, uint64(e.U)<<32|uint64(e.V))
			}
		}
		want.Levels, want.Blocks, want.Fingerprint, want.Stats = len(bd.Stats), bd.NumBlocks(), hex16(h), statsOf(bd.Stats)
		return want, nil, nil
	case "connectivity":
		cr, err := connectivity.ComponentsPoolCtx(nil, pool, g, beta, seed, 0, core.DirectionAuto)
		if err != nil {
			return want, nil, err
		}
		h := fnvU64(fnvOffset, uint64(cr.Components))
		for _, l := range cr.Label {
			h = fnvU64(h, uint64(l))
		}
		want.Levels, want.Components, want.Fingerprint, want.Stats = len(cr.Stats), cr.Components, hex16(h), statsOf(cr.Stats)
		return want, nil, nil
	}
	return want, nil, fmt.Errorf("unknown app %q", app)
}

// diffBuild returns "" when the service's build response matches the
// library's, and a description of the first difference otherwise.
// QueryLevels is compared only when want carries it.
func diffBuild(body []byte, want buildResp) string {
	var got buildResp
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable build response: " + err.Error()
	}
	switch {
	case got.App != want.App || got.Seed != want.Seed || math.Float64bits(got.Beta) != math.Float64bits(want.Beta):
		return fmt.Sprintf("config echo %s/%v/%d, want %s/%v/%d", got.App, got.Beta, got.Seed, want.App, want.Beta, want.Seed)
	case got.Levels != want.Levels:
		return fmt.Sprintf("levels %d, want %d", got.Levels, want.Levels)
	case got.TreeEdges != want.TreeEdges || got.Blocks != want.Blocks || got.Components != want.Components:
		return fmt.Sprintf("treeEdges/blocks/components %d/%d/%d, want %d/%d/%d",
			got.TreeEdges, got.Blocks, got.Components, want.TreeEdges, want.Blocks, want.Components)
	case want.QueryLevels != 0 && got.QueryLevels != want.QueryLevels:
		return fmt.Sprintf("queryLevels %d, want %d", got.QueryLevels, want.QueryLevels)
	case got.Fingerprint != want.Fingerprint:
		return fmt.Sprintf("fingerprint %s, want %s", got.Fingerprint, want.Fingerprint)
	case len(got.Stats) != len(want.Stats):
		return fmt.Sprintf("%d level stats, want %d", len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		g, w := got.Stats[i], want.Stats[i]
		if g.Level != w.Level || g.N != w.N || g.M != w.M || g.Clusters != w.Clusters ||
			g.CutEdges != w.CutEdges || g.QuotientN != w.QuotientN ||
			math.Float64bits(g.CutFraction) != math.Float64bits(w.CutFraction) {
			return fmt.Sprintf("level %d stats %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// queryOracles answers query batches by direct oracle calls on the
// library's own build of the queried configuration.
type queryOracles struct {
	dist   *oracle.DistanceOracle
	member *oracle.MembershipOracle
}

// expectQuery returns the answer array and checksum a query response for
// b must carry.
func (o *queryOracles) expectQuery(b *batch) (any, string) {
	h := fnvOffset
	switch b.op {
	case "dist":
		out := make([]int32, len(b.pairs))
		o.dist.DistBatch(b.pairs, out)
		for _, d := range out {
			h = fnvU64(h, uint64(uint32(d)))
		}
		return out, hex16(h)
	case "cluster":
		out := make([]uint32, len(b.verts))
		o.member.ClusterBatch(b.level, b.verts, out)
		for _, c := range out {
			h = fnvU64(h, uint64(c))
		}
		return out, hex16(h)
	default:
		out := make([]bool, len(b.pairs))
		o.member.SameClusterBatch(b.level, b.pairs, out)
		for _, s := range out {
			x := uint64(0)
			if s {
				x = 1
			}
			h = fnvU64(h, x)
		}
		return out, hex16(h)
	}
}

// diffQuery checks one query response body against the oracle answers.
func (o *queryOracles) diffQuery(body []byte, b *batch, corrupt bool) string {
	var got queryResp
	if err := json.Unmarshal(body, &got); err != nil {
		return "undecodable query response: " + err.Error()
	}
	want, sum := o.expectQuery(b)
	if corrupt {
		sum = "corrupted-expectation"
	}
	if got.Op != b.op || got.Count != b.size() {
		return fmt.Sprintf("op/count %s/%d, want %s/%d", got.Op, got.Count, b.op, b.size())
	}
	if got.Checksum != sum {
		return fmt.Sprintf("checksum %s, want %s", got.Checksum, sum)
	}
	switch w := want.(type) {
	case []int32:
		if !slices.Equal(got.Dists, w) {
			return "dist answers differ from DistBatch"
		}
	case []uint32:
		if !slices.Equal(got.Clusters, w) {
			return "cluster answers differ from ClusterBatch"
		}
	case []bool:
		if !slices.Equal(got.Same, w) {
			return "same answers differ from SameClusterBatch"
		}
	}
	return ""
}
