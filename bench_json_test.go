package mpx_bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// benchRecord is one benchmark result serialized for artifact upload: the
// standard counters plus every user-reported metric (alloc gates, E23
// speedup, hierarchy depths).
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// recordOf runs fn once through testing.Benchmark. A benchmark that fails
// — a gate calling b.Fatal or b.Error — comes back from testing.Benchmark
// as a zero result with N == 0; recordOf turns that into an error naming
// the benchmark instead of an all-zero record.
func recordOf(name string, fn func(*testing.B)) (benchRecord, error) {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		return benchRecord{}, fmt.Errorf("benchmark %s failed (its gate stopped it before any iteration was recorded)", name)
	}
	return benchRecord{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Metrics:     r.Extra,
	}, nil
}

// namedBench is a benchmark function with the name its record carries.
type namedBench struct {
	name string
	fn   func(*testing.B)
}

// writeBenchJSON runs each named benchmark and writes the records to path,
// failing the test on the first benchmark that fails.
func writeBenchJSON(t *testing.T, path string, benches []namedBench) {
	t.Helper()
	records := make([]benchRecord, len(benches))
	for i, nb := range benches {
		rec, err := recordOf(nb.name, nb.fn)
		if err != nil {
			t.Fatal(err)
		}
		records[i] = rec
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d records)", path, len(records))
}

// TestWriteBenchJSON materializes the machine-readable benchmark
// artifacts: BENCH_E22.json (the per-level allocation gates for the
// unweighted and weighted hierarchy engines), BENCH_E23.json (the
// incremental-update-vs-rebuild experiment), BENCH_E24.json (the
// snapshot-load-vs-text-parse experiment), and BENCH_E25.json (the
// zero-alloc batched query-serving experiment: queries/sec, allocs/query,
// p50/p99 latency). Gated behind MPX_BENCH_JSON so ordinary test runs
// stay fast; CI sets it and uploads the files. Each wrapped benchmark
// keeps its own hard gate (alloc ceilings, the ≥3× and ≥10× speedup
// floors, the 0-allocs/query serving gate), so a regression fails this
// test rather than just shifting a number in the artifact.
func TestWriteBenchJSON(t *testing.T) {
	if os.Getenv("MPX_BENCH_JSON") == "" {
		t.Skip("set MPX_BENCH_JSON=1 to run the gate benchmarks and write BENCH_E22.json / BENCH_E23.json / BENCH_E24.json / BENCH_E25.json")
	}
	writeBenchJSON(t, "BENCH_E22.json", []namedBench{
		{"E22HierarchyAllocGate", BenchmarkE22HierarchyAllocGate},
		{"E22WeightedHierarchyAllocGate", BenchmarkE22WeightedHierarchyAllocGate},
	})
	writeBenchJSON(t, "BENCH_E23.json", []namedBench{
		{"E23IncrementalUpdate", BenchmarkE23IncrementalUpdate},
		{"E23RebuildBaseline", BenchmarkE23RebuildBaseline},
	})
	writeBenchJSON(t, "BENCH_E24.json", []namedBench{
		{"E24SnapshotLoad", BenchmarkE24SnapshotLoad},
		{"E24TextParseBaseline", BenchmarkE24TextParseBaseline},
	})
	writeBenchJSON(t, "BENCH_E25.json", []namedBench{
		{"E25QueryThroughput", BenchmarkE25QueryThroughput},
		{"E25QueryLatency", BenchmarkE25QueryLatency},
	})
}

// TestRecordOfReportsFailedGate checks that a benchmark gate calling
// b.Fatal makes recordOf fail with the benchmark's name rather than
// yield an all-zero record.
func TestRecordOfReportsFailedGate(t *testing.T) {
	rec, err := recordOf("FailingGate", func(b *testing.B) {
		b.Fatal("gate tripped")
	})
	if err == nil {
		t.Fatalf("failing gate produced record %+v and no error", rec)
	}
	if !strings.Contains(err.Error(), "FailingGate") {
		t.Fatalf("error %q does not name the benchmark", err)
	}
	if _, err := recordOf("PassingGate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
		}
	}); err != nil {
		t.Fatalf("passing benchmark: %v", err)
	}
}
