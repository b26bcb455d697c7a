package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
	"mpx/internal/parallel"
)

// newTestServer builds a Server on its own pool plus an httptest.Server
// in front of it; both are torn down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Pool == nil {
		pool := parallel.NewPool(0)
		t.Cleanup(pool.Close)
		cfg.Pool = pool
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if n := s.Panics(); n != 0 {
			t.Errorf("server recovered %d handler panics; want 0", n)
		}
	})
	return s, ts
}

// gridSnapshotBytes returns the canonical .mpxsnap encoding of a
// rows×cols grid (weighted with deterministic U(1,4) weights when
// weighted is set).
func gridSnapshotBytes(t testing.TB, rows, cols int, weighted bool) []byte {
	t.Helper()
	g := graph.Grid2D(rows, cols)
	path := filepath.Join(t.TempDir(), "g.mpxsnap")
	var err error
	if weighted {
		err = snapshot.WriteFile(path, nil, graph.RandomWeights(g, 1, 4, 7))
	} else {
		err = snapshot.WriteFile(path, g, nil)
	}
	if err != nil {
		t.Fatalf("snapshot.WriteFile: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading snapshot: %v", err)
	}
	return data
}

// httpBody issues a request and returns (status, headers, body).
func httpBody(t *testing.T, method, url string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading response: %v", err)
	}
	return resp.StatusCode, resp.Header, data
}

// register uploads data and returns the reported fingerprint.
func register(t *testing.T, baseURL string, data []byte) string {
	t.Helper()
	code, _, body := httpBody(t, http.MethodPost, baseURL+"/v1/graphs", data)
	if code != http.StatusCreated && code != http.StatusOK {
		t.Fatalf("register: status %d, body %s", code, body)
	}
	var resp registerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("register response: %v (%s)", err, body)
	}
	return resp.Fingerprint
}

// buildReqBody is a convenience for the standard build/query JSON bodies.
func jsonBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// errKind decodes the typed error envelope of a non-2xx body.
func errKind(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error envelope: %v (%s)", err, body)
	}
	return eb.Error.Kind
}

// bodyFNV is the golden-pin fold over exact response bytes.
func bodyFNV(body []byte) uint64 {
	h := fnvOffset
	for _, b := range body {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// waitGoroutines waits for the goroutine count to settle back to at most
// want, tolerating runtime stragglers.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), want, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// smallDIMACS is a 6-vertex weighted path in DIMACS format (1-based ids).
const smallDIMACS = `c tiny weighted path
p sp 6 5
a 1 2 1.5
a 2 3 2.0
a 3 4 1.0
a 4 5 3.25
a 5 6 2.5
`

func fmtURL(base, format string, args ...any) string {
	return base + fmt.Sprintf(format, args...)
}
