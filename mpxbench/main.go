// Command mpxbench is the repository benchmark: it drives the mpxd
// service (internal/server) over a loopback HTTP listener from one
// process, checks every answer against direct library calls, and prints
// the end-to-end metrics of one workload (or, with --trace 1, the
// per-layer metrics of a traced run). See README.md for the workloads,
// the metric definitions and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // module root: sources to stamp, scratch under .bench_build
	work     string // this run's scratch dir
	commit   string
	rate     float64 // phase B's open-loop rate, requests/s
	corrupt  bool    // corrupt one build and one query expectation (tests the verifier)
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, in
// BENCHMARK.json order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"build_lowstretch_p50_s", "s"},
	{"build_blocks_p50_s", "s"},
	{"build_connectivity_p50_s", "s"},
	{"query_pairs_per_s", "1/s"},
	{"query_p50_s", "s"},
	{"query_slo_frac", "frac"},
	{"ok_frac", "frac"},
	{"live_heap_mb", "MB"},
	{"cut_frac_over_beta", "ratio"},
}

// perLayerUnit gives a per-layer metric's unit from its name.
func perLayerUnit(name string) string {
	switch {
	case name == "gc.cpu_frac":
		return "frac"
	case strings.Contains(name, "alloc_bytes"):
		return "B"
	case strings.HasSuffix(name, "_ns") || strings.Contains(name, "ns_per_"):
		return "ns"
	case strings.HasSuffix(name, "_s") || strings.Contains(name, "_s."):
		return "s"
	}
	return "count"
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its record and result
// line. It returns 0 when every operation verified, 1 when any failed or
// the run was invalid, and 2 on a usage or set-up error (printing no
// result line).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpxbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{}
	fs.StringVar(&cfg.workload, "workload", "", "workload name (build-rmat, build-road, query-mix)")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: graphs, build seeds and query batches derive from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "timed work, in seconds of the reference machine; operation counts scale with it")
	traceFlag := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository root (the module the benchmark measures)")
	fs.StringVar(&cfg.commit, "commit", "", "commit id to stamp on the record")
	fs.Float64Var(&cfg.rate, "rate", openRate, "phase B's open-loop rate, requests/s (report.py calibrate sweeps it)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "mpxbench: --trace must be 0 or 1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	if !(cfg.seconds > 0) || cfg.seconds > 600 {
		fmt.Fprintln(stderr, "mpxbench: --seconds must be in (0, 600]")
		return 2
	}
	if !(cfg.rate > 0) || cfg.rate > 1e5 {
		fmt.Fprintln(stderr, "mpxbench: --rate must be in (0, 100000]")
		return 2
	}
	var w workload
	var names []string
	for _, c := range workloads {
		names = append(names, c.name)
		if c.name == cfg.workload {
			w = c
		}
	}
	if w.name == "" {
		fmt.Fprintf(stderr, "mpxbench: unknown --workload %q (valid: %v)\n", cfg.workload, names)
		return 2
	}
	return runWorkload(cfg, w, stdout, stderr)
}

// runWorkload runs w and prints its record and result line, returning
// run's exit code.
func runWorkload(cfg config, w workload, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg.work = filepath.Join(cfg.root, ".bench_build", "mpxbench", "run-"+strconv.Itoa(os.Getpid()))
	rec, res, err := execute(cfg, w)
	if err != nil {
		fmt.Fprintf(stderr, "mpxbench: %v\n", err)
		return 2
	}
	line, _ := json.Marshal(map[string]any{"record": rec})
	fmt.Fprintln(stdout, string(line))
	line, _ = json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		for _, n := range rec.FailNotes {
			fmt.Fprintln(stderr, "mpxbench: FAILED:", n)
		}
		return 1
	}
	return 0
}

// record is the full result of a run, printed before the contract line:
// the host stamp, every metric, tails with sample counts, generator
// lateness, and (traced runs) per-layer span summaries.
type record struct {
	Host      host                    `json:"host"`
	Trace     bool                    `json:"trace"`
	EndToEnd  map[string]float64      `json:"end_to_end"`
	PerLayer  map[string]float64      `json:"per_layer,omitempty"`
	Spans     map[string]layerSummary `json:"spans,omitempty"`
	Tails     map[string]tail         `json:"tails"`
	Detail    map[string]float64      `json:"detail"`
	Counts    map[string]int          `json:"counts"`
	Invalid   string                  `json:"invalid,omitempty"`
	FailNotes []string                `json:"fail_notes,omitempty"`
	WallS     float64                 `json:"wall_s"`
}

func execute(cfg config, w workload) (rec record, res result, err error) {
	start := time.Now()
	b := &bench{cfg: cfg, w: w}
	if cfg.trace {
		b.tr = &tracer{t0: start}
	}
	if err := b.start(); err != nil {
		return rec, res, err
	}
	defer b.stop()

	b.setup()
	runtime.GC()
	b.timed()
	runtime.GC()
	runtime.GC()
	b.liveHeap = readRuntime().liveHeap
	if err := b.verify(); err != nil {
		return rec, res, err
	}
	var perLayer map[string]float64
	if cfg.trace {
		perLayer = b.layers()
		if err := b.verify(); err != nil {
			return rec, res, err
		}
		if err := b.tr.write(filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("trace-%s-%d.json", w.name, cfg.seed))); err != nil {
			return rec, res, err
		}
	}

	e2e, tails, detail, counts := b.metrics()
	rec = record{
		Host:     hostStamp(cfg.root, cfg.commit, w.name, cfg.seed),
		Trace:    cfg.trace,
		EndToEnd: e2e,
		PerLayer: perLayer,
		Tails:    tails,
		Detail:   detail,
		Counts:   counts,
		Invalid:  b.loadgenBad,
	}
	if cfg.trace {
		rec.Spans = b.tr.summary()
	}
	res = result{Attempted: counts["attempted"], Failed: counts["failed"], Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0 && b.loadgenBad == ""
	if cfg.trace {
		for _, n := range perLayerNames {
			res.Metrics[n] = metric{finite(perLayer[n], &res.Correct, n, b), perLayerUnit(n)}
		}
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{finite(e2e[m.name], &res.Correct, m.name, b), m.unit}
		}
	}
	rec.FailNotes = b.failNotes
	rec.WallS = time.Since(start).Seconds()
	return rec, res, nil
}

// finite guards the JSON encoder against NaN/Inf: a metric without
// samples marks the run incorrect and reads 0.
func finite(x float64, correct *bool, name string, b *bench) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		*correct = false
		b.note("metric %s has no samples", name)
		return 0
	}
	return x
}

// metrics derives the end-to-end metrics from the verified records.
func (b *bench) metrics() (map[string]float64, map[string]tail, map[string]float64, map[string]int) {
	buildPhase := "phase1"
	if b.w.serving() {
		buildPhase = "side"
	}
	// cut_frac_over_beta is taken over the first sidePerSlice side builds
	// per round: every phase-B slice makes at least that many, and their
	// apps and seeds follow from --seed alone, so the metric does not
	// depend on how many builds fit into the slices. The side graph is a
	// road graph in every workload. RMAT builds are left out: at their β
	// the level-0 partition is one cluster per component in most builds, so
	// the ratio is near zero and set by the rare build that cuts.
	cutBuilds := sidePerSlice * b.scaled(b.w.rounds)
	byApp := map[string][]float64{}
	var allBuilds, cutRatio []float64
	failed := b.adminFail
	side := 0
	for _, r := range b.builds {
		if r.phase == "side" {
			side++
		}
		if !r.ok {
			failed++
			continue
		}
		if r.phase == "side" && side <= cutBuilds && len(r.resp.Stats) > 0 {
			cutRatio = append(cutRatio, r.resp.Stats[0].CutFraction/r.beta)
		}
		if r.phase == buildPhase {
			byApp[r.app] = append(byApp[r.app], r.lat.Seconds())
			allBuilds = append(allBuilds, r.lat.Seconds())
		}
	}
	var dist, mix, late []float64
	var distSum, mixSum float64
	byKind := map[string][]float64{}
	open, openOK := 0, 0
	for _, q := range b.queries {
		if !q.ok {
			failed++
		}
		switch q.phase {
		case "dist1024":
			if q.ok {
				dist = append(dist, q.lat.Seconds())
				distSum += q.lat.Seconds()
			}
		case "mix":
			if q.ok {
				mix = append(mix, q.lat.Seconds())
				mixSum += q.lat.Seconds()
				bt := b.batches[q.batch]
				k := fmt.Sprintf("%s_b%d_p50_s", bt.op, bt.size())
				byKind[k] = append(byKind[k], q.lat.Seconds())
			}
		case "open":
			open++
			if q.ok && q.lat <= sloLimit {
				openOK++
			}
			if q.paced {
				late = append(late, q.late.Seconds())
			}
		}
	}
	attempted := b.admin + len(b.builds) + len(b.queries)
	e2e := map[string]float64{
		"setup_s":                  median(b.setupSamples),
		"build_lowstretch_p50_s":   median(byApp["lowstretch"]),
		"build_blocks_p50_s":       median(byApp["blocks"]),
		"build_connectivity_p50_s": median(byApp["connectivity"]),
		"query_pairs_per_s":        1024 / median(dist),
		"query_p50_s":              median(mix),
		"query_slo_frac":           float64(openOK) / float64(max(open, 1)),
		"ok_frac":                  float64(attempted-failed) / float64(attempted),
		"live_heap_mb":             float64(b.liveHeap) / (1 << 20),
		"cut_frac_over_beta":       mean(cutRatio),
	}
	tails := map[string]tail{
		"build_p90_s": tailOf(allBuilds, 0.9),
		"query_p99_s": tailOf(mix, 0.99),
	}
	detail := map[string]float64{
		"late_p50_s": quantile(late, 0.5),
		"late_p99_s": quantile(late, 0.99),
		"paced":      float64(len(late)),
		"rate":       b.cfg.rate,
		// Phase A's closed-loop capacity: requests per second of busy time
		// for the mix alone and for the whole phase (dist batches too).
		"phase_a_mix_req_per_s": float64(len(mix)) / mixSum,
		"phase_a_req_per_s":     float64(len(dist)+len(mix)) / (distSum + mixSum),
		"lag_first_p50_s":       median(b.lagFirst),
		"lag_last_p50_s":        median(b.lagLast),
		"cut_builds":            float64(len(cutRatio)),
		"slo_limit_s":           sloLimit.Seconds(),
		"side_builds":           float64(countPhase(b.builds, "side")),
		"steal_frac":            b.stealFrac,
		"span_ns":               float64(b.spanCost.Nanoseconds()),
	}
	for k, v := range byKind {
		detail["mix."+k] = median(v)
	}
	for app, xs := range byApp {
		detail["build."+app+"_q1_s"] = quantile(xs, 0.25)
		detail["build."+app+"_q3_s"] = quantile(xs, 0.75)
	}
	for k, v := range detail {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			detail[k] = -1
		}
	}
	counts := map[string]int{
		"attempted": attempted, "failed": failed,
		"builds": len(b.builds), "queries": len(b.queries), "admin": b.admin,
		"build_samples": len(allBuilds), "dist_samples": len(dist), "mix_samples": len(mix), "open_requests": open,
	}
	return e2e, tails, detail, counts
}

func countPhase(rs []*buildRec, phase string) int {
	n := 0
	for _, r := range rs {
		if r.phase == phase {
			n++
		}
	}
	return n
}
