package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"mpx/internal/parallel"
)

// serverQueryAllocSlack is how many more allocations a 1024-entry query
// may make than a 1-entry query of the same op: the oracle's pool
// dispatch for batches past its sharding grain, and nothing per entry.
const serverQueryAllocSlack = 8

// BenchmarkServerQuery measures in-process ServeHTTP on a retained
// lowstretch build of a 100×100 grid: dist, cluster and same at batch
// sizes 1, 64 and 1024, reporting ns/pair and allocs/req. Before the
// timed runs it gates allocation: for every op, a 1024-entry request may
// allocate at most serverQueryAllocSlack more objects than a 1-entry
// request, so decoding, answering and encoding allocate nothing per
// entry.
func BenchmarkServerQuery(b *testing.B) {
	pool := parallel.NewPool(0)
	defer pool.Close()
	s, err := New(Config{Pool: pool})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	defer s.Close()
	w := &discardWriter{h: http.Header{}}
	post := func(path string, body []byte) int {
		w.code = 0
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w.code
	}
	const rows, cols = 100, 100
	if code := post("/v1/graphs", gridSnapshotBytes(b, rows, cols, false)); code != http.StatusCreated {
		b.Fatalf("register: status %d", code)
	}
	fp := fpHex(s.reg.snapshotEntries()[0].fp)
	if code := post("/v1/graphs/"+fp+"/build", []byte(`{"app":"lowstretch","beta":0.25,"seed":1}`)); code != http.StatusOK {
		b.Fatalf("build: status %d", code)
	}

	rng := rand.New(rand.NewPCG(1, 2))
	body := func(op string, size int) []byte {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, `{"app":"lowstretch","beta":0.25,"seed":1,"op":%q`, op)
		key := "pairs"
		if op == "cluster" {
			key = "verts"
		}
		if op != "dist" {
			buf.WriteString(`,"level":0`)
		}
		fmt.Fprintf(&buf, `,%q:[`, key)
		for i := 0; i < size; i++ {
			if i > 0 {
				buf.WriteByte(',')
			}
			if op == "cluster" {
				fmt.Fprintf(&buf, "%d", rng.IntN(rows*cols))
			} else {
				fmt.Fprintf(&buf, "[%d,%d]", rng.IntN(rows*cols), rng.IntN(rows*cols))
			}
		}
		buf.WriteString("]}")
		return buf.Bytes()
	}
	// One request, its body reader rewound before every serve, so the
	// allocations counted are the handler's own.
	query := func(b *testing.B, data []byte) func() {
		rd := bytes.NewReader(data)
		req := httptest.NewRequest(http.MethodPost, "/v1/graphs/"+fp+"/query", rd)
		return func() {
			rd.Reset(data)
			w.code = 0
			s.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("query: status %d", w.code)
			}
		}
	}

	ops := []string{"dist", "cluster", "same"}
	sizes := []int{1, 64, 1024}
	bodies := map[string][]byte{}
	for _, op := range ops {
		for _, size := range sizes {
			bodies[fmt.Sprint(op, size)] = body(op, size)
		}
		small := testing.AllocsPerRun(20, query(b, bodies[fmt.Sprint(op, 1)]))
		large := testing.AllocsPerRun(20, query(b, bodies[fmt.Sprint(op, 1024)]))
		if large > small+serverQueryAllocSlack {
			b.Fatalf("%s: a 1024-entry request allocates %.0f objects, a 1-entry one %.0f: more than %d apart, so something allocates per entry",
				op, large, small, serverQueryAllocSlack)
		}
	}
	for _, op := range ops {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/%d", op, size), func(b *testing.B) {
				serve := query(b, bodies[fmt.Sprint(op, size)])
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					serve()
				}
				b.StopTimer()
				runtime.ReadMemStats(&m1)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/pair")
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N), "allocs/req")
			})
		}
	}
}

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, reusing one header map across requests.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header { return w.h }

func (w *discardWriter) WriteHeader(code int) { w.code = code }

func (w *discardWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return len(p), nil
}
