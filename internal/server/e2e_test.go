package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"
)

// TestLifecycleEndToEnd walks the full service lifecycle over real HTTP:
// register → build (cache miss) → identical build (cache hit, byte-
// identical body) → queries → evict → 404 → re-register → recomputed
// build byte-identical to the original.
func TestLifecycleEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	snap := gridSnapshotBytes(t, 20, 20, false)
	fp := register(t, ts.URL, snap)

	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 42})
	buildURL := fmtURL(ts.URL, "/v1/graphs/%s/build", fp)

	code, hdr, miss := httpBody(t, http.MethodPost, buildURL, buildBody)
	if code != http.StatusOK {
		t.Fatalf("build: status %d, body %s", code, miss)
	}
	if got := hdr.Get("X-Mpxd-Cache"); got != "miss" {
		t.Fatalf("first build cache header = %q, want miss", got)
	}
	var br buildResponse
	if err := json.Unmarshal(miss, &br); err != nil {
		t.Fatalf("build response: %v (%s)", err, miss)
	}
	if br.Graph != fp || br.App != "lowstretch" || br.TreeEdges == 0 || br.Levels == 0 || len(br.Stats) != br.Levels {
		t.Fatalf("implausible build response: %+v", br)
	}

	code, hdr, hit := httpBody(t, http.MethodPost, buildURL, buildBody)
	if code != http.StatusOK {
		t.Fatalf("cached build: status %d", code)
	}
	if got := hdr.Get("X-Mpxd-Cache"); got != "hit" {
		t.Fatalf("second build cache header = %q, want hit", got)
	}
	if !bytes.Equal(miss, hit) {
		t.Fatalf("cache hit body differs from fresh body:\nmiss: %s\nhit:  %s", miss, hit)
	}

	queryURL := fmtURL(ts.URL, "/v1/graphs/%s/query", fp)
	distBody := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.25, "seed": 42,
		"op": "dist", "pairs": [][]uint32{{0, 1}, {0, 399}, {5, 5}},
	})
	code, _, qd := httpBody(t, http.MethodPost, queryURL, distBody)
	if code != http.StatusOK {
		t.Fatalf("dist query: status %d, body %s", code, qd)
	}
	var qr queryResponse
	if err := json.Unmarshal(qd, &qr); err != nil {
		t.Fatalf("query response: %v", err)
	}
	if qr.Count != 3 || len(qr.Dists) != 3 {
		t.Fatalf("dist query: %+v", qr)
	}
	if qr.Dists[2] != 0 {
		t.Fatalf("dist(5,5) = %d, want 0", qr.Dists[2])
	}
	// The grid is connected and the tree spans it: every distance >= the
	// graph distance and none is -1.
	if qr.Dists[0] < 1 || qr.Dists[1] < 1 {
		t.Fatalf("implausible tree distances: %v", qr.Dists)
	}

	clusterBody := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.25, "seed": 42,
		"op": "cluster", "level": 0, "verts": []uint32{0, 1, 399},
	})
	code, _, qc := httpBody(t, http.MethodPost, queryURL, clusterBody)
	if code != http.StatusOK {
		t.Fatalf("cluster query: status %d, body %s", code, qc)
	}
	sameBody := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.25, "seed": 42,
		"op": "same", "level": 0, "pairs": [][]uint32{{0, 0}, {0, 399}},
	})
	code, _, qs := httpBody(t, http.MethodPost, queryURL, sameBody)
	if code != http.StatusOK {
		t.Fatalf("same query: status %d, body %s", code, qs)
	}
	var sr queryResponse
	if err := json.Unmarshal(qs, &sr); err != nil {
		t.Fatalf("same response: %v", err)
	}
	if len(sr.Same) != 2 || !sr.Same[0] {
		t.Fatalf("same(0,0) must be true: %+v", sr)
	}

	// Info reflects the retained build; list shows the one graph.
	code, _, info := httpBody(t, http.MethodGet, fmtURL(ts.URL, "/v1/graphs/%s", fp), nil)
	if code != http.StatusOK {
		t.Fatalf("info: status %d", code)
	}
	var gi graphInfo
	if err := json.Unmarshal(info, &gi); err != nil {
		t.Fatalf("info response: %v", err)
	}
	if gi.Builds != 1 || gi.N != 400 {
		t.Fatalf("info: %+v", gi)
	}

	// Evict: info and build turn 404; queries too.
	code, _, _ = httpBody(t, http.MethodDelete, fmtURL(ts.URL, "/v1/graphs/%s", fp), nil)
	if code != http.StatusOK {
		t.Fatalf("evict: status %d", code)
	}
	code, _, nf := httpBody(t, http.MethodGet, fmtURL(ts.URL, "/v1/graphs/%s", fp), nil)
	if code != http.StatusNotFound || errKind(t, nf) != kindNotFound {
		t.Fatalf("info after evict: status %d, body %s", code, nf)
	}
	code, _, nf = httpBody(t, http.MethodPost, buildURL, buildBody)
	if code != http.StatusNotFound {
		t.Fatalf("build after evict: status %d, body %s", code, nf)
	}

	// Re-register and rebuild: the recomputed body is byte-identical to
	// the original (the determinism contract, across eviction).
	if got := register(t, ts.URL, snap); got != fp {
		t.Fatalf("re-register fingerprint %s, want %s", got, fp)
	}
	code, hdr, again := httpBody(t, http.MethodPost, buildURL, buildBody)
	if code != http.StatusOK || hdr.Get("X-Mpxd-Cache") != "miss" {
		t.Fatalf("rebuild after evict: status %d, cache %q", code, hdr.Get("X-Mpxd-Cache"))
	}
	if !bytes.Equal(miss, again) {
		t.Fatalf("recomputed body differs after evict/re-register:\nwas: %s\nnow: %s", miss, again)
	}
}

// Golden FNV fingerprints of the exact build-response bytes for the
// 20×20 grid at beta=0.25 seed=42, pinned at workers 1, 2 and 8: the
// response body is a pure function of (graph fingerprint, app, config) —
// worker count must never change a byte.
var goldenBuildBodyFNV = map[string]uint64{
	"lowstretch":   0xd34b208960806050,
	"blocks":       0xdabb112bdec55835,
	"connectivity": 0x33cab711f94a9df5,
}

func TestBuildBodyDeterminismAcrossWorkers(t *testing.T) {
	snap := gridSnapshotBytes(t, 20, 20, false)
	bodies := map[string][][]byte{}
	for _, workers := range []int{1, 2, 8} {
		_, ts := newTestServer(t, Config{Workers: workers})
		fp := register(t, ts.URL, snap)
		for app := range goldenBuildBodyFNV {
			body := jsonBody(t, map[string]any{"app": app, "beta": 0.25, "seed": 42})
			code, _, resp := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), body)
			if code != http.StatusOK {
				t.Fatalf("workers=%d app=%s: status %d, body %s", workers, app, code, resp)
			}
			bodies[app] = append(bodies[app], resp)
		}
	}
	for app, bs := range bodies {
		for i := 1; i < len(bs); i++ {
			if !bytes.Equal(bs[0], bs[i]) {
				t.Errorf("app %s: body differs between worker counts:\n%s\n%s", app, bs[0], bs[i])
			}
		}
		if got := bodyFNV(bs[0]); got != goldenBuildBodyFNV[app] {
			t.Errorf("app %s: golden body FNV = %#x, want %#x (body %s)", app, got, goldenBuildBodyFNV[app], bs[0])
		}
	}
}

// TestRestartByteIdentity restarts the service (fresh server, fresh pool,
// fresh cache) and replays the same requests: every response body —
// build and query — must be byte-identical to the first server's.
func TestRestartByteIdentity(t *testing.T) {
	snap := gridSnapshotBytes(t, 16, 16, false)
	buildBody := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.3, "seed": 9})
	queryBody := jsonBody(t, map[string]any{
		"app": "lowstretch", "beta": 0.3, "seed": 9,
		"op": "dist", "pairs": [][]uint32{{0, 255}, {3, 77}, {10, 10}},
	})
	run := func() (build, query []byte) {
		_, ts := newTestServer(t, Config{})
		fp := register(t, ts.URL, snap)
		code, _, b := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), buildBody)
		if code != http.StatusOK {
			t.Fatalf("build: status %d, body %s", code, b)
		}
		code, _, q := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), queryBody)
		if code != http.StatusOK {
			t.Fatalf("query: status %d, body %s", code, q)
		}
		return b, q
	}
	b1, q1 := run()
	b2, q2 := run()
	if !bytes.Equal(b1, b2) {
		t.Errorf("build body changed across restart:\n%s\n%s", b1, b2)
	}
	if !bytes.Equal(q1, q2) {
		t.Errorf("query body changed across restart:\n%s\n%s", q1, q2)
	}
}

// TestWeightedLifecycle registers weighted content (DIMACS text and a
// weighted snapshot) and exercises the weighted build + query path.
func TestWeightedLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	fp := register(t, ts.URL, []byte(smallDIMACS))

	wbuild := jsonBody(t, map[string]any{"app": "lowstretch", "weighted": true, "beta": 0.4, "seed": 3})
	code, _, body := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), wbuild)
	if code != http.StatusOK {
		t.Fatalf("weighted build: status %d, body %s", code, body)
	}
	var br buildResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatalf("weighted build response: %v", err)
	}
	if !br.Weighted || br.TreeEdges != 5 {
		t.Fatalf("weighted path tree must keep all 5 edges: %+v", br)
	}

	wquery := jsonBody(t, map[string]any{
		"app": "lowstretch", "weighted": true, "beta": 0.4, "seed": 3,
		"op": "dist", "pairs": [][]uint32{{0, 5}, {2, 2}},
	})
	code, _, q := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), wquery)
	if code != http.StatusOK {
		t.Fatalf("weighted dist query: status %d, body %s", code, q)
	}
	var qr queryResponse
	if err := json.Unmarshal(q, &qr); err != nil {
		t.Fatalf("weighted query response: %v", err)
	}
	// The tree IS the path: dist(0,5) is the exact weighted path length.
	want := 1.5 + 2.0 + 1.0 + 3.25 + 2.5
	if len(qr.WDists) != 2 || qr.WDists[0] != want || qr.WDists[1] != 0 {
		t.Fatalf("weighted dists = %v, want [%v 0]", qr.WDists, want)
	}

	// Membership ops need the unweighted hierarchy: typed 400 on a
	// weighted build.
	wcluster := jsonBody(t, map[string]any{
		"app": "lowstretch", "weighted": true, "beta": 0.4, "seed": 3,
		"op": "cluster", "level": 0, "verts": []uint32{0},
	})
	code, _, e := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", fp), wcluster)
	if code != http.StatusBadRequest || errKind(t, e) != kindBadRequest {
		t.Fatalf("cluster on weighted build: status %d, body %s", code, e)
	}

	// The same entry also serves unweighted builds on the unweighted view.
	ubuild := jsonBody(t, map[string]any{"app": "connectivity", "beta": 0.4, "seed": 3})
	code, _, cb := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), ubuild)
	if code != http.StatusOK {
		t.Fatalf("unweighted build on weighted entry: status %d, body %s", code, cb)
	}
	var cr buildResponse
	if err := json.Unmarshal(cb, &cr); err != nil {
		t.Fatalf("connectivity response: %v", err)
	}
	if cr.Components != 1 {
		t.Fatalf("path has 1 component, got %d", cr.Components)
	}

	// A weighted snapshot upload round-trips through the registry too.
	fpw := register(t, ts.URL, gridSnapshotBytes(t, 8, 8, true))
	if fpw == fp {
		t.Fatalf("distinct graphs collided on fingerprint %s", fpw)
	}
	wb2 := jsonBody(t, map[string]any{"app": "lowstretch", "weighted": true, "beta": 0.3, "seed": 1})
	code, _, b2 := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fpw), wb2)
	if code != http.StatusOK {
		t.Fatalf("weighted snapshot build: status %d, body %s", code, b2)
	}
}

// TestDuplicateRegisterIdempotent uploads identical content twice: the
// second is a 200 created=false no-op keyed to the same fingerprint.
func TestDuplicateRegisterIdempotent(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	snap := gridSnapshotBytes(t, 10, 10, false)
	code, _, first := httpBody(t, http.MethodPost, ts.URL+"/v1/graphs", snap)
	if code != http.StatusCreated {
		t.Fatalf("first register: status %d", code)
	}
	code, _, second := httpBody(t, http.MethodPost, ts.URL+"/v1/graphs", snap)
	if code != http.StatusOK {
		t.Fatalf("second register: status %d", code)
	}
	var r1, r2 registerResponse
	if err := json.Unmarshal(first, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &r2); err != nil {
		t.Fatal(err)
	}
	if !r1.Created || r2.Created || r1.Fingerprint != r2.Fingerprint {
		t.Fatalf("idempotency broken: %+v then %+v", r1, r2)
	}
	if s.reg.size() != 1 {
		t.Fatalf("registry holds %d entries, want 1", s.reg.size())
	}
	// List shows exactly one graph.
	code, _, list := httpBody(t, http.MethodGet, ts.URL+"/v1/graphs", nil)
	if code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	var lr listResponse
	if err := json.Unmarshal(list, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Count != 1 || len(lr.Graphs) != 1 || lr.Graphs[0].Fingerprint != r1.Fingerprint {
		t.Fatalf("list: %+v", lr)
	}
}

// TestBuildDeadline503 pins the deadline path: an already-expired build
// budget cancels at the first engine boundary with a typed 503, leaves no
// state anywhere, and the server stays healthy.
func TestBuildDeadline503(t *testing.T) {
	s, ts := newTestServer(t, Config{BuildTimeout: time.Nanosecond})
	fp := register(t, ts.URL, gridSnapshotBytes(t, 20, 20, false))
	body := jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 42})
	code, _, resp := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", fp), body)
	if code != http.StatusServiceUnavailable || errKind(t, resp) != kindCancelled {
		t.Fatalf("deadline build: status %d, body %s", code, resp)
	}
	if s.cache.size() != 0 {
		t.Fatalf("cancelled build left %d cache entries", s.cache.size())
	}
	fpBits, ok := parseFingerprint(fp)
	if !ok {
		t.Fatalf("parseFingerprint(%q) failed", fp)
	}
	e := s.reg.acquire(fpBits)
	if e == nil {
		t.Fatal("entry vanished")
	}
	if n := e.buildCount(); n != 0 {
		t.Fatalf("cancelled build retained %d hierarchies", n)
	}
	s.reg.release(e)
	code, _, _ = httpBody(t, http.MethodGet, ts.URL+"/v1/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz after cancelled build: %d", code)
	}
}

// Golden FNV fingerprints of the exact query-response bytes against the
// 20×20 grid's lowstretch build at beta=0.25 seed=42 (and one weighted
// dist batch on the U(1,4)-weighted 8×8 grid at beta=0.3 seed=1), pinned
// at workers 1, 2 and 8. The 300-entry batches cross the oracle's
// sharding grain, so the pool splits them at workers > 1.
var goldenQueryBodyFNV = map[string]uint64{
	"dist":    0xd612ca7c7cc9edfb,
	"cluster": 0xf94f5baf108dbe58,
	"same":    0xa672710242ae923c,
	"wdists":  0xcada7e976fa99430,
}

// goldenQueryBodies returns the request bodies goldenQueryBodyFNV pins.
func goldenQueryBodies(t *testing.T) map[string][]byte {
	const q = 300
	pairs := make([][2]uint32, q)
	wpairs := make([][2]uint32, q)
	verts := make([]uint32, q)
	for i := range pairs {
		pairs[i] = [2]uint32{uint32(i*37) % 400, uint32(i*91+7) % 400}
		wpairs[i] = [2]uint32{uint32(i*13) % 64, uint32(i*29+3) % 64}
		verts[i] = uint32(i*53+11) % 400
	}
	cfg := func(kv map[string]any) []byte {
		m := map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 42}
		for k, v := range kv {
			m[k] = v
		}
		return jsonBody(t, m)
	}
	return map[string][]byte{
		"dist":    cfg(map[string]any{"op": "dist", "pairs": pairs}),
		"cluster": cfg(map[string]any{"op": "cluster", "level": 0, "verts": verts}),
		"same":    cfg(map[string]any{"op": "same", "level": 0, "pairs": pairs}),
		"wdists": jsonBody(t, map[string]any{"app": "lowstretch", "weighted": true, "beta": 0.3, "seed": 1,
			"op": "dist", "pairs": wpairs}),
	}
}

func TestQueryBodyDeterminismAcrossWorkers(t *testing.T) {
	snap := gridSnapshotBytes(t, 20, 20, false)
	wsnap := gridSnapshotBytes(t, 8, 8, true)
	reqs := goldenQueryBodies(t)
	bodies := map[string][][]byte{}
	for _, workers := range []int{1, 2, 8} {
		_, ts := newTestServer(t, Config{Workers: workers})
		fp := register(t, ts.URL, snap)
		wfp := register(t, ts.URL, wsnap)
		for g, b := range map[string][]byte{
			fp:  jsonBody(t, map[string]any{"app": "lowstretch", "beta": 0.25, "seed": 42}),
			wfp: jsonBody(t, map[string]any{"app": "lowstretch", "weighted": true, "beta": 0.3, "seed": 1}),
		} {
			if code, _, resp := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/build", g), b); code != http.StatusOK {
				t.Fatalf("workers=%d: build status %d, body %s", workers, code, resp)
			}
		}
		for name, req := range reqs {
			g := fp
			if name == "wdists" {
				g = wfp
			}
			code, _, resp := httpBody(t, http.MethodPost, fmtURL(ts.URL, "/v1/graphs/%s/query", g), req)
			if code != http.StatusOK {
				t.Fatalf("workers=%d %s: status %d, body %s", workers, name, code, resp)
			}
			bodies[name] = append(bodies[name], resp)
		}
	}
	for name, bs := range bodies {
		for i := 1; i < len(bs); i++ {
			if !bytes.Equal(bs[0], bs[i]) {
				t.Errorf("%s: body differs between worker counts:\n%s\n%s", name, bs[0], bs[i])
			}
		}
		if got := bodyFNV(bs[0]); got != goldenQueryBodyFNV[name] {
			t.Errorf("%s: golden body FNV = %#x, want %#x (body %.200s…)", name, got, goldenQueryBodyFNV[name], bs[0])
		}
	}
}
