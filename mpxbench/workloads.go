package main

import (
	"time"

	"mpx/internal/graph"
)

// betas fixes the decomposition parameter per app for one graph family.
// Each is chosen so that one hierarchy depth dominates that app's builds
// on that family (measured over 20 build seeds): a build's time steps
// with its level count, and a median over builds that straddle two depths
// jumps between them from run to run. Blocks on road graphs use the
// classical β = 1/2, whose 11–16 levels vary little relative to their
// count; on RMAT only a small β keeps blocks at two levels.
type betas map[string]float64

var (
	roadBetas = betas{"lowstretch": 0.1, "blocks": 0.5, "connectivity": 0.1}
	rmatBetas = betas{"lowstretch": 0.2, "blocks": 0.05, "connectivity": 0.2}
)

// openRate is phase B's open-loop rate in requests/s (--rate overrides
// it): about half of phase A's closed-loop capacity, counted over the whole
// phase (its 1024-pair dist batches and the mix, 1160-1750 requests per
// second of busy time on the 2-core reference host), as measured by
// `report.py calibrate` (results/calibration.md). Half of the mix's own
// capacity (about 1400/s) is not used: there the SLO share swung from
// 1.0 to 0.89 with the host's speed between runs, beyond its bound.
const openRate = 750

// apps is the order the phase-B build loop cycles through.
var apps = []string{"lowstretch", "blocks", "connectivity"}

// buildCycle is a build workload's phase-1 round: the cheap apps twice, so
// their medians rest on as many samples as the host's noise needs without
// doubling the expensive blocks builds.
var buildCycle = []string{"lowstretch", "blocks", "connectivity", "lowstretch", "connectivity"}

// workload is one input set plus the operation counts of its rounds
// (bench.timed). The round count is per 10 s of --seconds and scales
// linearly with it; the per-round counts are fixed.
type workload struct {
	name, why string
	// main is the graph the queries (and, for the build workloads, the
	// phase-1 builds) run on; side is the smaller graph the phase-B build
	// loop rebuilds while queries run.
	main, side func(seed uint64) *graph.Graph
	// mainBetas are the β of builds on main; side builds use roadBetas.
	mainBetas betas
	rounds    int
	// cycle lists the phase-1 cold builds on main of every round. The
	// serving workload has none: its build metrics come from the phase-B
	// side builds, made under query load.
	cycle []string
	// evictEvery is how many rounds pass between evictions of main (build
	// workloads); sideEvictEvery how many side builds between evictions of
	// side. Both bound the retained builds.
	evictEvery, sideEvictEvery int
	distPerRound               int           // phase A: 1024-pair dist requests
	mixPerRound                int           // phase A: mixed requests (9 kinds, round robin)
	openSlice                  time.Duration // phase B: length of the open-loop schedule
}

// serving reports whether w is the serving workload (no phase-1 builds).
func (w workload) serving() bool { return len(w.cycle) == 0 }

func rmatGraph(seed uint64) *graph.Graph { return graph.RMAT(17, 1_000_000, seed) }

func roadGraph(seed uint64) *graph.Graph { return graph.RoadNetwork(400, 400, 0.85, 200, seed) }

func smallRoadGraph(seed uint64) *graph.Graph { return graph.RoadNetwork(200, 200, 0.85, 50, seed) }

var workloads = []workload{
	{
		name: "build-rmat",
		why:  "skewed low-diameter RMAT graph: few BFS rounds over huge frontiers, so shift plan, sort and hub-heavy contraction dominate cold builds",
		main: rmatGraph, side: smallRoadGraph, mainBetas: rmatBetas,
		rounds: 20, cycle: buildCycle, evictEvery: 2, sideEvictEvery: 4,
		distPerRound: 40, mixPerRound: 72, openSlice: 150 * time.Millisecond,
	},
	{
		name: "build-road",
		why:  "bounded-degree high-diameter road graph: many small BFS rounds and deeper hierarchies, so per-round dispatch and per-level overhead dominate",
		main: roadGraph, side: smallRoadGraph, mainBetas: roadBetas,
		rounds: 17, cycle: buildCycle, evictEvery: 2, sideEvictEvery: 4,
		distPerRound: 40, mixPerRound: 72, openSlice: 150 * time.Millisecond,
	},
	{
		name: "query-mix",
		why:  "retained road build serving dist/cluster/same batches closed loop, then open loop beside back-to-back cold builds: codec, oracle and pool contention",
		main: roadGraph, side: smallRoadGraph, mainBetas: roadBetas,
		rounds: 24, sideEvictEvery: 6,
		distPerRound: 50, mixPerRound: 90, openSlice: 500 * time.Millisecond,
	},
}

// smoke shrinks a workload to seconds of work on small graphs; the
// benchmark's own tests use it.
func smoke(w workload) workload {
	w.main = func(seed uint64) *graph.Graph { return graph.RoadNetwork(40, 40, 0.85, 10, seed) }
	w.side = func(seed uint64) *graph.Graph { return graph.RoadNetwork(30, 30, 0.85, 5, seed) }
	w.rounds, w.distPerRound, w.mixPerRound, w.openSlice = 4, 5, 9, 50*time.Millisecond
	return w
}
