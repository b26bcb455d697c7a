package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// FuzzServerRequest throws arbitrary (method, path, body) triples at the
// full handler. The contract under fuzzing is total input handling:
// no handler panic ever (the recovery middleware must stay untriggered),
// and every non-2xx response is the typed JSON error envelope. The
// hostile-input table in hostile_test.go is the curated version of this
// target; the seeds below cover each router and decoder branch. A tiny
// grid is registered with one lowstretch build retained, so build and
// query bodies against its fingerprint get past the registry lookup to
// the request decoder and the query validation behind it.
func FuzzServerRequest(f *testing.F) {
	s, err := New(Config{
		// Small caps so fuzz inputs reach the limit branches cheaply.
		MaxUploadBytes: 4096,
		MaxJSONBytes:   1024,
		MaxBatch:       16,
		MaxBuilds:      1,
	})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(func() {
		if err := s.Close(); err != nil {
			f.Errorf("Close: %v", err)
		}
	})
	snap := gridSnapshotBytes(f, 4, 4, false)
	const build = `{"app":"lowstretch","beta":0.25,"seed":1`
	serve := func(method, path string, body []byte) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		return rec
	}
	// ensureGraph (re-)registers the grid and its build, which a fuzzed
	// DELETE may have evicted.
	var fp string
	ensureGraph := func(tb testing.TB) {
		if fpBits, ok := parseFingerprint(fp); ok {
			if e := s.reg.acquire(fpBits); e != nil {
				s.reg.release(e)
				return
			}
		}
		rec := serve(http.MethodPost, "/v1/graphs", snap)
		var reg registerResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &reg); err != nil || reg.Fingerprint == "" {
			tb.Fatalf("registering the grid: status %d, body %s", rec.Code, rec.Body.Bytes())
		}
		fp = reg.Fingerprint
		if rec := serve(http.MethodPost, "/v1/graphs/"+fp+"/build", []byte(build+"}")); rec.Code != http.StatusOK {
			tb.Fatalf("building on the grid: status %d, body %s", rec.Code, rec.Body.Bytes())
		}
	}
	ensureGraph(f)
	graph := "/v1/graphs/" + fp
	if rec := serve(http.MethodPost, graph+"/query", []byte(build+`,"op":"dist","pairs":[[0,15]]}`)); rec.Code != http.StatusOK {
		f.Fatalf("query on the grid: status %d, body %s", rec.Code, rec.Body.Bytes())
	}

	f.Add("GET", "/v1/healthz", []byte(nil))
	f.Add("POST", "/v1/healthz", []byte(nil))
	f.Add("GET", "/v1/stats", []byte(nil))
	f.Add("GET", "/v1/graphs", []byte(nil))
	f.Add("POST", "/v1/graphs", []byte("not a graph"))
	f.Add("POST", "/v1/graphs", []byte("p sp 2 1\na 1 2 1.0\n"))
	f.Add("POST", "/v1/graphs", []byte("0 1\n1 2\n"))
	f.Add("GET", graph, []byte(nil))
	f.Add("DELETE", "/v1/graphs/0123456789abcdef", []byte(nil))
	f.Add("GET", "/v1/graphs/nothex", []byte(nil))
	f.Add("POST", "/v1/graphs/0123456789abcdef/build", []byte(build+"}"))
	for _, b := range []string{
		build + "}", build + `,"weighted":true}`, `{"app":"blocks","beta":0.5,"seed":2}`,
		`{"app":"lowstretch","beta":`, `{"unknown":true}`, `{} {}`, build + "}]]]", build + "}}",
		`{"APP":"connectivity","Beta":0.5,"ſeed":1}`,
	} {
		f.Add("POST", graph+"/build", []byte(b))
	}
	for _, b := range []string{
		build + `,"op":"dist","pairs":[[0,1],[2,15]]}`,
		build + `,"op":"cluster","level":0,"verts":[0,15]}`,
		build + `,"op":"same","level":0,"pairs":[[3,4]]}`,
		build + `,"op":"cluster","level":-1,"verts":[0]}`,
		build + `,"op":"dist","pairs":[[1,null]]}`,
		build + `,"op":"dist","pairs":[[0,16]]}`,
		build + `,"op":"dist","pairs":[[0,1,2]]}`,
		build + `,"op":"dist","pairs":[[0,1]]}]`,
		build + `,"op":"same","level":0,"pairs":[[0,1]],"verts":null}`,
	} {
		f.Add("POST", graph+"/query", []byte(b))
	}
	f.Add("POST", graph+"/explode", []byte(nil))
	f.Add("", "", []byte(nil))
	f.Add("TRACE", "/", []byte("x"))
	f.Add("PUT", "/v1/graphs/"+string(bytes.Repeat([]byte("a"), 64)), []byte(nil))
	f.Add("POST", "/v1/graphs", bytes.Repeat([]byte("e"), 8192))

	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		ensureGraph(t)
		// Build the request directly (no URL parsing) so arbitrary method
		// and path strings reach the router instead of dying in a client.
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path},
			Body:   io.NopCloser(bytes.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)

		if n := s.Panics(); n != 0 {
			t.Fatalf("%q %q %q: handler panicked (recovered %d)", method, path, body, n)
		}
		resp := rec.Body.Bytes()
		if rec.Code < 200 || rec.Code > 599 {
			t.Fatalf("%q %q: implausible status %d", method, path, rec.Code)
		}
		if rec.Code >= 200 && rec.Code < 300 {
			if !json.Valid(resp) {
				t.Fatalf("%q %q: 2xx body is not JSON: %q", method, path, resp)
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(resp, &eb); err != nil {
			t.Fatalf("%q %q: status %d body is not the error envelope: %q (%v)",
				method, path, rec.Code, resp, err)
		}
		if eb.Error.Kind == "" || eb.Error.Code != rec.Code || eb.Error.Message == "" {
			t.Fatalf("%q %q: malformed error envelope for %d: %q", method, path, rec.Code, resp)
		}
	})
}
