package server

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestHostileInputs drives the router and request decoders with every
// malformed shape we could think of. The contract: each one is a typed
// 4xx with a machine-readable kind — never a panic, never an untyped
// body (the fuzz target extends this table with generated inputs).
func TestHostileInputs(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fp := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, false))
	// One retained build so query-layer validation (not the 404 path) is
	// what trips.
	code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp),
		jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1}))
	if code != http.StatusOK {
		t.Fatalf("setup build: status %d, body %s", code, body)
	}
	q := map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1}
	withQ := func(kv map[string]any) []byte {
		m := map[string]any{}
		for k, v := range q {
			m[k] = v
		}
		for k, v := range kv {
			m[k] = v
		}
		return jsonBody(t, m)
	}

	cases := []struct {
		name     string
		method   string
		path     string
		body     []byte
		wantCode int
		wantKind string
	}{
		{"unknown path", http.MethodGet, "/v2/graphs", nil, 404, kindNotFound},
		{"root path", http.MethodGet, "/", nil, 404, kindNotFound},
		{"healthz wrong method", http.MethodPost, "/v1/healthz", nil, 405, kindMethod},
		{"stats wrong method", http.MethodDelete, "/v1/stats", nil, 405, kindMethod},
		{"graphs wrong method", http.MethodPut, "/v1/graphs", nil, 405, kindMethod},
		{"fingerprint too short", http.MethodGet, "/v1/graphs/abc", nil, 400, kindBadRequest},
		{"fingerprint uppercase", http.MethodGet, "/v1/graphs/ABCDEF0123456789", nil, 400, kindBadRequest},
		{"fingerprint non-hex", http.MethodGet, "/v1/graphs/zzzzzzzzzzzzzzzz", nil, 400, kindBadRequest},
		{"fingerprint too long", http.MethodGet, "/v1/graphs/" + strings.Repeat("a", 17), nil, 400, kindBadRequest},
		{"unregistered graph info", http.MethodGet, "/v1/graphs/00000000000000aa", nil, 404, kindNotFound},
		{"unregistered graph evict", http.MethodDelete, "/v1/graphs/00000000000000aa", nil, 404, kindNotFound},
		{"unknown action", http.MethodPost, "/v1/graphs/" + fp + "/explode", nil, 404, kindNotFound},
		{"build wrong method", http.MethodGet, "/v1/graphs/" + fp + "/build", nil, 405, kindMethod},
		{"query wrong method", http.MethodGet, "/v1/graphs/" + fp + "/query", nil, 405, kindMethod},
		{"graph entry wrong method", http.MethodPost, "/v1/graphs/" + fp, nil, 405, kindMethod},
		{"register garbage bytes", http.MethodPost, "/v1/graphs", []byte("\x00\x01not a graph\xff"), 400, kindBadRequest},
		{"register empty body", http.MethodPost, "/v1/graphs", nil, 400, kindBadRequest},
		{"build on unregistered graph", http.MethodPost, "/v1/graphs/00000000000000aa/build",
			jsonBody(t, q), 404, kindNotFound},
		{"build malformed JSON", http.MethodPost, "/v1/graphs/" + fp + "/build",
			[]byte("{\"app\": "), 400, kindBadRequest},
		{"build not an object", http.MethodPost, "/v1/graphs/" + fp + "/build",
			[]byte("[1,2,3]"), 400, kindBadRequest},
		{"build unknown field", http.MethodPost, "/v1/graphs/" + fp + "/build",
			withQ(map[string]any{"workers": 8}), 400, kindBadRequest},
		{"build trailing content", http.MethodPost, "/v1/graphs/" + fp + "/build",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1} trailing`), 400, kindBadRequest},
		{"build trailing brace", http.MethodPost, "/v1/graphs/" + fp + "/build",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1}}`), 400, kindBadRequest},
		{"build trailing brackets", http.MethodPost, "/v1/graphs/" + fp + "/build",
			[]byte(`{"app":"lowstretch","beta":0.5,"seed":1}]]]`), 400, kindBadRequest},
		{"build unknown app", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "mincut", "beta": 0.25, "seed": 1}), 400, kindBadRequest},
		{"build empty app", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"beta": 0.25, "seed": 1}), 400, kindBadRequest},
		{"build beta zero", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0, "seed": 1}), 400, kindBadRequest},
		{"build beta one", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "lowstretch", "beta": 1.0, "seed": 1}), 400, kindBadRequest},
		{"build beta negative", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "lowstretch", "beta": -0.5, "seed": 1}), 400, kindBadRequest},
		{"build weighted on unweighted graph", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "lowstretch", "weighted": true, "beta": 0.25, "seed": 1}), 400, kindBadRequest},
		{"build weighted blocks", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "blocks", "weighted": true, "beta": 0.25, "seed": 1}), 400, kindBadRequest},
		{"build delta on unweighted", http.MethodPost, "/v1/graphs/" + fp + "/build",
			jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "delta": 2.0, "seed": 1}), 400, kindBadRequest},
		{"query malformed JSON", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte("null null"), 400, kindBadRequest},
		{"query wrong app", http.MethodPost, "/v1/graphs/" + fp + "/query",
			jsonBody(t, map[string]any{"app": "blocks", "beta": 0.25, "seed": 1, "op": "dist", "pairs": [][]uint32{{0, 1}}}), 400, kindBadRequest},
		{"query unknown op", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "shortestpath", "pairs": [][]uint32{{0, 1}}}), 400, kindBadRequest},
		{"query unbuilt config", http.MethodPost, "/v1/graphs/" + fp + "/query",
			jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.5, "seed": 99, "op": "dist", "pairs": [][]uint32{{0, 1}}}), 404, kindNotFound},
		{"dist with level", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "dist", "level": 0, "pairs": [][]uint32{{0, 1}}}), 400, kindBadRequest},
		{"dist with verts", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "dist", "pairs": [][]uint32{{0, 1}}, "verts": []uint32{0}}), 400, kindBadRequest},
		{"dist empty pairs", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "dist", "pairs": [][]uint32{}}), 400, kindBadRequest},
		{"dist pair arity", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "dist", "pairs": [][]uint32{{0, 1, 2}}}), 400, kindBadRequest},
		{"dist pair out of range", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "dist", "pairs": [][]uint32{{0, 64}}}), 400, kindBadRequest},
		{"cluster without level", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "cluster", "verts": []uint32{0}}), 400, kindBadRequest},
		{"cluster level out of range", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "cluster", "level": 99, "verts": []uint32{0}}), 400, kindBadRequest},
		{"cluster negative level", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "cluster", "level": -1, "verts": []uint32{0}}), 400, kindBadRequest},
		{"cluster with pairs", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "cluster", "level": 0, "pairs": [][]uint32{{0, 1}}}), 400, kindBadRequest},
		{"cluster vert out of range", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "cluster", "level": 0, "verts": []uint32{64}}), 400, kindBadRequest},
		{"same without level", http.MethodPost, "/v1/graphs/" + fp + "/query",
			withQ(map[string]any{"op": "same", "pairs": [][]uint32{{0, 1}}}), 400, kindBadRequest},
		{"query trailing brace", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1]]}}`), 400, kindBadRequest},
		{"query trailing bracket", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1]]}]`), 400, kindBadRequest},
		{"dist null in pair", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[1,null]]}`), 400, kindBadRequest},
		{"same null in pair", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"same","level":0,"pairs":[[null,1]]}`), 400, kindBadRequest},
		{"cluster null vert", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"cluster","level":0,"verts":[0,null]}`), 400, kindBadRequest},
		{"dist null pair", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[null]}`), 400, kindBadRequest},
		{"dist fractional vertex", http.MethodPost, "/v1/graphs/" + fp + "/query",
			[]byte(`{"app":"lowstretch","beta":0.25,"seed":1,"op":"dist","pairs":[[0,1.0]]}`), 400, kindBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, hdr, body := httpBody(t, tc.method, ts.URL+tc.path, tc.body)
			if code != tc.wantCode {
				t.Fatalf("status %d, want %d (body %s)", code, tc.wantCode, body)
			}
			if kind := errKind(t, body); kind != tc.wantKind {
				t.Fatalf("kind %q, want %q (body %s)", kind, tc.wantKind, body)
			}
			if ct := hdr.Get("Content-Type"); ct != "application/json" {
				t.Fatalf("Content-Type %q, want application/json", ct)
			}
			if code == http.StatusMethodNotAllowed && hdr.Get("Allow") == "" {
				t.Fatal("405 without an Allow header")
			}
		})
	}
}

// TestRequestBodyNullMeansAbsent pins the other side of the null-element
// rule: a null pairs, verts or level value is the field left out, so the
// query is served.
func TestRequestBodyNullMeansAbsent(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fp := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, false))
	build := `{"app":"lowstretch","beta":0.25,"seed":1`
	if code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), []byte(build+`}`)); code != http.StatusOK {
		t.Fatalf("build: status %d, body %s", code, body)
	}
	for _, q := range []string{
		build + `,"op":"dist","pairs":[[0,63]],"verts":null,"level":null}`,
		build + `,"op":"cluster","level":0,"verts":[0,63],"pairs":null}`,
		build + `,"op":"same","level":0,"verts":null,"pairs":[[0,63]]}`,
	} {
		if code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), []byte(q)); code != http.StatusOK {
			t.Errorf("%s: status %d, body %s", q, code, body)
		}
	}
}

// TestSizeCaps pins the 413 paths and the batch cap under deliberately
// tiny limits.
func TestSizeCaps(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxUploadBytes: 256,
		MaxJSONBytes:   128,
		MaxBatch:       4,
	})

	// Upload over the cap: 413 too_large, nothing registered.
	code, _, body := httpBody(t, http.MethodPost, ts.URL+"/v1/graphs", bytes.Repeat([]byte("x"), 512))
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != kindTooLarge {
		t.Fatalf("oversized upload: status %d, body %s", code, body)
	}
	code, _, list := httpBody(t, http.MethodGet, ts.URL+"/v1/graphs", nil)
	if code != http.StatusOK || !bytes.Contains(list, []byte(`"count":0`)) {
		t.Fatalf("registry after rejected upload: %s", list)
	}

	// A DIMACS graph small enough to fit under the upload cap.
	fp := register(t, ts.URL, []byte(smallDIMACS))

	// JSON body over its (smaller) cap: 413.
	manyPairs := make([][]uint32, 24)
	for i := range manyPairs {
		manyPairs[i] = []uint32{0, uint32(i % 6)}
	}
	big := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.25, "seed": 1,
		"op": "dist", "pairs": manyPairs,
	})
	if len(big) <= 128 {
		t.Fatalf("test body too small to trip the cap: %d bytes", len(big))
	}
	code, _, body = httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), big)
	if code != http.StatusRequestEntityTooLarge || errKind(t, body) != kindTooLarge {
		t.Fatalf("oversized JSON: status %d, body %s", code, body)
	}

	// Batch over MaxBatch: typed 400.
	code, _, body = httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp),
		jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 1}))
	if code != http.StatusOK {
		t.Fatalf("build: status %d, body %s", code, body)
	}
	code, _, body = httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp),
		jsonBody(t, map[string]any{
			"app": "lowstretch", "beta": 0.25, "seed": 1,
			"op": "dist", "pairs": [][]uint32{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}},
		}))
	if code != http.StatusBadRequest || errKind(t, body) != kindBadRequest {
		t.Fatalf("over-batch query: status %d, body %s", code, body)
	}
}
