package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"mpx/internal/core"
	"mpx/internal/graph"
	"mpx/internal/hier"
	"mpx/internal/xrand"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share req; parent is the index of the enclosing span or -1.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing and costs a nil check, so untraced runs share the code path.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex // phase B records from two goroutines
	spans []span
}

func (t *tracer) begin(name string, req, parent int) int {
	if t == nil {
		return -1
	}
	start := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = end
}

// layerSummary is a span name's count, total and self time (total minus
// the time its child spans cover).
type layerSummary struct {
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (t *tracer) summary() map[string]layerSummary {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]layerSummary{}
	for i, s := range t.spans {
		ls := out[s.Name]
		ls.Count++
		ls.TotalS += float64(s.End-s.Start) / 1e9
		ls.SelfS += float64(s.End-s.Start-child[i]) / 1e9
		out[s.Name] = ls
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layers measures the per-layer metrics of a traced run, after the timed
// phases and verification, by calling each layer's public functions on
// the run's own graphs, builds and batches.
func (b *bench) layers() map[string]float64 {
	m := map[string]float64{}
	buildGraph, buildPhase := "main", "phase1"
	if b.w.serving() {
		buildGraph, buildPhase = "side", "side"
	}

	// Ingest: the service's register against the library's open and
	// fingerprint of the same bytes.
	var reg, open, fps []float64
	for _, s := range b.tr.spans {
		d := float64(s.End-s.Start) / 1e9
		switch s.Name {
		case "server.register":
			reg = append(reg, d)
		case "graph.open":
			open = append(open, d)
		case "graph.fingerprint":
			fps = append(fps, d)
		}
	}
	for i := 0; i < 3; i++ {
		sp := b.tr.begin("graph.open", 0, -1)
		t0 := time.Now()
		op, err := graph.OpenAny(b.files["main"])
		open = append(open, time.Since(t0).Seconds())
		b.tr.end(sp)
		if err != nil {
			continue
		}
		sp = b.tr.begin("graph.fingerprint", 0, -1)
		t0 = time.Now()
		op.Graph.Fingerprint()
		fps = append(fps, time.Since(t0).Seconds())
		b.tr.end(sp)
		op.Close()
	}
	m["server.register_s"] = median(reg)
	m["graph.open_s"] = median(open)
	m["graph.fingerprint_s"] = median(fps)

	// Apps: the verifier's library builds on the build graph, and the
	// service's overhead over them for the same configuration.
	libByApp := map[string][]float64{}
	allocByApp := map[string][]float64{}
	var overhead []float64
	var levels []float64
	for _, rec := range b.builds {
		lc, ok := b.libCalls[rec.id]
		if !ok || lc.graph != buildGraph || !rec.ok {
			continue
		}
		libByApp[lc.app] = append(libByApp[lc.app], lc.dur.Seconds())
		allocByApp[lc.app] = append(allocByApp[lc.app], float64(lc.alloc))
		if rec.phase == buildPhase {
			overhead = append(overhead, (rec.lat - lc.dur).Seconds())
			levels = append(levels, float64(rec.resp.Levels))
		}
	}
	for _, app := range apps {
		m["apps."+app+"_s"] = median(libByApp[app])
		m["apps.alloc_bytes."+app] = median(allocByApp[app])
	}
	m["server.build_overhead_s"] = median(overhead)
	m["hier.levels"] = mean(levels)

	// Hierarchy, partition and contraction: rerun the first lowstretch and
	// connectivity configurations of the build phase through hier.Run and
	// replay each level's partition and contraction inside the visit
	// callback (visits are delivered after the derivation, so the replays
	// are child spans and hier.run's self time is the engine's own).
	var level0, upper, part, shifts, contract, rounds, relaxed []float64
	done := map[string]int{}
	g := b.graphs[buildGraph]
	for _, rec := range b.builds {
		if !rec.ok || rec.graph != buildGraph || rec.phase != buildPhase || rec.app == "blocks" || done[rec.app] >= 3 {
			continue
		}
		done[rec.app]++
		req := rec.id
		root := b.tr.begin("hier.run", req, -1)
		var up float64
		hier.Run(hier.Config{Beta: rec.beta, Seed: rec.seed, Pool: b.pool, Direction: core.DirectionAuto, NeedEdgeOrig: rec.app == "lowstretch"},
			g, func(lv *hier.Level) error {
				sp := b.tr.begin("hier.level", req, root)
				t0 := time.Now()
				ps := b.tr.begin("core.partition", req, sp)
				d, err := core.Partition(lv.G, rec.beta, core.Options{Seed: xrand.Mix(rec.seed, uint64(lv.Index)), Pool: b.pool, Direction: core.DirectionAuto})
				pd := time.Since(t0)
				b.tr.end(ps)
				if err != nil {
					return err
				}
				cs := b.tr.begin("graph.contract", req, sp)
				c0 := time.Now()
				graph.ContractClustersPool(b.pool, 0, lv.G, d.Center, nil)
				cd := time.Since(c0)
				b.tr.end(cs)
				b.tr.end(sp)
				if lv.Index == 0 {
					level0 = append(level0, time.Since(t0).Seconds())
					part = append(part, pd.Seconds())
					contract = append(contract, cd.Seconds())
					rounds = append(rounds, float64(d.Rounds))
					relaxed = append(relaxed, float64(d.Relaxed))
					ss := b.tr.begin("core.shifts", req, root)
					s0 := time.Now()
					core.GenerateShifts(lv.G.NumVertices(), rec.beta, xrand.Mix(rec.seed, 0), core.ShiftExponential)
					shifts = append(shifts, time.Since(s0).Seconds())
					b.tr.end(ss)
				} else {
					up += time.Since(t0).Seconds()
				}
				return nil
			})
		b.tr.end(root)
		upper = append(upper, up)
	}
	m["hier.level0_s"] = median(level0)
	m["hier.upper_levels_s"] = median(upper)
	m["core.partition_s"] = median(part)
	m["core.shifts_s"] = median(shifts)
	m["core.rounds"] = median(rounds)
	m["core.relaxed_arcs"] = median(relaxed)
	m["core.ns_per_arc"] = median(part) / median(relaxed) * 1e9
	m["graph.contract_s"] = median(contract)

	// Oracle: the batch kernels on the run's own 1024-sized batches.
	perItem := func(kind int, call func(*batch)) float64 {
		var xs []float64
		for rep := 0; rep < 8; rep++ {
			for i := 0; i < batchesPerKind; i++ {
				bt := b.batches[kind*batchesPerKind+i]
				t0 := time.Now()
				call(bt)
				xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(bt.size()))
			}
		}
		return median(xs)
	}
	dists := make([]int32, 1024)
	clusters := make([]uint32, 1024)
	same := make([]bool, 1024)
	o := b.oracles
	m["oracle.dist_ns_per_pair"] = perItem(2, func(bt *batch) { o.dist.DistBatch(bt.pairs, dists) })
	m["oracle.cluster_ns_per_vert"] = perItem(5, func(bt *batch) { o.member.ClusterBatch(bt.level, bt.verts, clusters) })
	m["oracle.same_ns_per_pair"] = perItem(8, func(bt *batch) { o.member.SameClusterBatch(bt.level, bt.pairs, same) })
	m["oracle.build_s"] = b.oracleBuild.Seconds()

	// Server: in-process ServeHTTP on the same dist bodies, minus the
	// oracle batch on the same pairs; loopback is the HTTP round trip
	// minus ServeHTTP at batch size 1. The target build is re-posted
	// first: phase 1 evicts main, dropping it.
	b.build(b.c1, "main", "lowstretch", b.targetSeed, "layers")
	serve := func(bt *batch) time.Duration {
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+b.fps["main"]+"/query", bytes.NewReader(bt.body))
		rr := httptest.NewRecorder()
		t0 := time.Now()
		b.srv.ServeHTTP(rr, req)
		return time.Since(t0)
	}
	for ki, name := range map[int]string{0: "b1", 1: "b64", 2: "b1024"} {
		var self []float64
		for rep := 0; rep < 8; rep++ {
			for i := 0; i < batchesPerKind; i++ {
				bt := b.batches[ki*batchesPerKind+i]
				sp := b.tr.begin("server.serve_http", 0, -1)
				sd := serve(bt)
				osp := b.tr.begin("oracle.dist_batch", 0, sp)
				t0 := time.Now()
				o.dist.DistBatch(bt.pairs, dists)
				od := time.Since(t0)
				b.tr.end(osp)
				b.tr.end(sp)
				self = append(self, (sd - od).Seconds())
			}
		}
		m["server.query_self_s."+name] = median(self)
	}
	a0 := readRuntime().allocBytes
	const allocReps = 64
	for i := 0; i < allocReps; i++ {
		serve(b.batches[2*batchesPerKind+i%batchesPerKind])
	}
	m["server.query_alloc_bytes_per_pair"] = float64(readRuntime().allocBytes-a0) / (allocReps * 1024)
	var rt, sv []float64
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < batchesPerKind; i++ {
			rt = append(rt, b.query(b.c1, i, "layers").lat.Seconds())
			sv = append(sv, serve(b.batches[i]).Seconds())
		}
	}
	m["server.loopback_s"] = median(rt) - median(sv)

	// Pool: an empty two-slot For round trip.
	var disp []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		b.pool.For(2, 2, func(int) {})
		disp = append(disp, float64(time.Since(t0).Nanoseconds()))
	}
	m["parallel.dispatch_ns"] = median(disp)

	// The cost of one span, on a tracer of its own: what tracing adds to
	// each traced call.
	probe := &tracer{t0: time.Now()}
	t0 := time.Now()
	const probeSpans = 10000
	for i := 0; i < probeSpans; i++ {
		probe.end(probe.begin("probe", 0, -1))
	}
	b.spanCost = time.Since(t0) / probeSpans

	m["gc.cycles"] = float64(b.gc.gcCycles)
	m["gc.cpu_frac"] = b.gc.gcCPU / b.gc.totalCPU
	return m
}

// perLayerNames lists the traced run's metrics in BENCHMARK.json order.
var perLayerNames = []string{
	"server.register_s", "graph.open_s", "graph.fingerprint_s",
	"server.query_self_s.b1", "server.query_self_s.b64", "server.query_self_s.b1024",
	"server.query_alloc_bytes_per_pair", "server.loopback_s", "server.build_overhead_s",
	"oracle.dist_ns_per_pair", "oracle.same_ns_per_pair", "oracle.cluster_ns_per_vert", "oracle.build_s",
	"apps.lowstretch_s", "apps.blocks_s", "apps.connectivity_s",
	"apps.alloc_bytes.lowstretch", "apps.alloc_bytes.blocks", "apps.alloc_bytes.connectivity",
	"hier.levels", "hier.level0_s", "hier.upper_levels_s",
	"core.partition_s", "core.shifts_s", "core.rounds", "core.relaxed_arcs", "core.ns_per_arc",
	"graph.contract_s", "parallel.dispatch_ns", "gc.cpu_frac", "gc.cycles",
}
