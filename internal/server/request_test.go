package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"mpx/internal/oracle"
)

// refBuildRequest and refQueryRequest are the request bodies as
// encoding/json decodes them: the reference FuzzDecodeRequest holds the
// scanner to.
type refBuildRequest struct {
	App      string  `json:"app"`
	Weighted bool    `json:"weighted,omitempty"`
	Beta     float64 `json:"beta"`
	Delta    float64 `json:"delta,omitempty"`
	Seed     uint64  `json:"seed"`
}

type refQueryRequest struct {
	App      string     `json:"app"`
	Weighted bool       `json:"weighted,omitempty"`
	Beta     float64    `json:"beta"`
	Delta    float64    `json:"delta,omitempty"`
	Seed     uint64     `json:"seed"`
	Op       string     `json:"op"`
	Level    *int       `json:"level,omitempty"`
	Pairs    [][]uint32 `json:"pairs,omitempty"`
	Verts    []uint32   `json:"verts,omitempty"`
}

// refNullElems decodes the batch fields with pointer elements, so a null
// element inside pairs or verts shows as nil.
type refNullElems struct {
	Pairs [][]*uint32 `json:"pairs"`
	Verts []*uint32   `json:"verts"`
}

// refDecode is the strict encoding/json decode: size-capped, unknown
// fields rejected, and trailing content rejected as Decoder.More sees it.
// end is the offset after the decoded value.
func refDecode(body []byte, limit int64, dst any) (code int, kind string, end int64) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, io.NopCloser(bytes.NewReader(body)), limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge, kindTooLarge, 0
		}
		return http.StatusBadRequest, kindBadRequest, 0
	}
	end = dec.InputOffset()
	if dec.More() {
		return http.StatusBadRequest, kindBadRequest, end
	}
	return http.StatusOK, "", end
}

// scanDecode runs the server's decoder on body under the cap limit.
func scanDecode(t *testing.T, body []byte, limit int64, allowed field) (int, string, *scratch) {
	s := &Server{maxJSON: limit}
	rec := httptest.NewRecorder()
	sc := getScratch()
	if s.decodeRequest(rec, httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body)), sc, allowed) {
		return http.StatusOK, "", sc
	}
	return rec.Code, errKind(t, rec.Body.Bytes()), sc
}

// allowedDifference names the deliberate departure from encoding/json an
// input hits, or "" when the scanner must match the reference exactly.
// There are two, and both turn a reference 2xx into a 400 bad_request:
//
//   - a '}' or ']' as the first non-whitespace byte after the object,
//     which Decoder.More takes for the end of input;
//   - a null element inside pairs or verts, which encoding/json reads as
//     vertex 0.
func allowedDifference(body []byte, limit int64, end int64, query bool) string {
	capped := body[:min(int64(len(body)), limit)]
	if rest := bytes.TrimLeft(capped[end:], " \t\r\n"); len(rest) > 0 && (rest[0] == '}' || rest[0] == ']') {
		return "trailing bracket"
	}
	if !query {
		return ""
	}
	var ne refNullElems
	if err := json.NewDecoder(bytes.NewReader(capped)).Decode(&ne); err != nil {
		return ""
	}
	for _, p := range ne.Pairs {
		for _, v := range p {
			if v == nil {
				return "null pairs element"
			}
		}
	}
	for _, v := range ne.Verts {
		if v == nil {
			return "null verts element"
		}
	}
	return ""
}

func sameBuild(ref refBuildRequest, got buildRequest) bool {
	return ref.App == got.App && ref.Weighted == got.Weighted && ref.Seed == got.Seed &&
		math.Float64bits(ref.Beta) == math.Float64bits(got.Beta) &&
		math.Float64bits(ref.Delta) == math.Float64bits(got.Delta)
}

// queryMismatch describes how the scanner's decode differs from the
// reference's, or returns "".
func queryMismatch(ref *refQueryRequest, got *request) string {
	if !sameBuild(refBuildRequest{ref.App, ref.Weighted, ref.Beta, ref.Delta, ref.Seed}, got.buildRequest) {
		return fmt.Sprintf("config %+v, want %+v", got.buildRequest, ref)
	}
	if ref.Op != got.op {
		return fmt.Sprintf("op %q, want %q", got.op, ref.Op)
	}
	if (ref.Level != nil) != got.hasLevel || ref.Level != nil && *ref.Level != got.level {
		return fmt.Sprintf("level (%d, %v), want %v", got.level, got.hasLevel, ref.Level)
	}
	if (ref.Pairs != nil) != got.hasPairs || len(ref.Pairs) != len(got.pairs) {
		return fmt.Sprintf("pairs (%d, present %v), want %d (present %v)", len(got.pairs), got.hasPairs, len(ref.Pairs), ref.Pairs != nil)
	}
	badPair, badLen := -1, 0
	for i, p := range ref.Pairs {
		if len(p) != 2 && badPair < 0 {
			badPair, badLen = i, len(p)
		}
		var want [2]uint32
		copy(want[:], p)
		if got.pairs[i].U != want[0] || got.pairs[i].V != want[1] {
			return fmt.Sprintf("pairs[%d] = %v, want %v", i, got.pairs[i], p)
		}
	}
	if got.badPair != badPair || badPair >= 0 && got.badPairLen != badLen {
		return fmt.Sprintf("bad pair (%d, len %d), want (%d, len %d)", got.badPair, got.badPairLen, badPair, badLen)
	}
	if (ref.Verts != nil) != got.hasVerts || !slices.Equal(ref.Verts, got.verts) {
		return fmt.Sprintf("verts %v (present %v), want %v", got.verts, got.hasVerts, ref.Verts)
	}
	return ""
}

// checkDecode decodes body as a build and as a query body under the cap
// limit with both decoders and fails on any difference beyond the
// allowed ones.
func checkDecode(t *testing.T, body []byte, limit int64) {
	for _, query := range []bool{false, true} {
		var ref any = new(refBuildRequest)
		allowed := buildFields
		if query {
			ref, allowed = new(refQueryRequest), queryFields
		}
		wantCode, wantKind, end := refDecode(body, limit, ref)
		diff := ""
		if wantCode == http.StatusOK {
			if diff = allowedDifference(body, limit, end, query); diff != "" {
				wantCode, wantKind = http.StatusBadRequest, kindBadRequest
			}
		}
		code, kind, sc := scanDecode(t, body, limit, allowed)
		if code != wantCode || kind != wantKind {
			putScratch(sc)
			t.Fatalf("query=%v cap=%d body %q: status %d %q, want %d %q (allowed difference: %q)",
				query, limit, body, code, kind, wantCode, wantKind, diff)
		}
		if code == http.StatusOK {
			if query {
				if m := queryMismatch(ref.(*refQueryRequest), &sc.req); m != "" {
					t.Fatalf("cap=%d body %q: %s", limit, body, m)
				}
			} else if r := *ref.(*refBuildRequest); !sameBuild(r, sc.req.buildRequest) {
				t.Fatalf("cap=%d body %q: build %+v, want %+v", limit, body, sc.req.buildRequest, r)
			}
		}
		putScratch(sc)
	}
}

// randomQueryResponse draws a response with each result array present
// or omitted at random, floats spanning both of encoding/json's formats.
func randomQueryResponse(rng *rand.Rand) queryResponse {
	ops := [...]string{"dist", "cluster", "same"}
	resp := queryResponse{
		Graph:    fpHex(rng.Uint64()),
		Op:       ops[rng.IntN(len(ops))],
		Count:    rng.IntN(1 << 20),
		Checksum: fpHex(rng.Uint64()),
	}
	if rng.IntN(2) == 0 {
		l := rng.IntN(40) - 8
		resp.Level = &l
	}
	n := func() int { return rng.IntN(6) }
	if rng.IntN(2) == 0 {
		resp.Dists = make([]int32, n())
		for i := range resp.Dists {
			resp.Dists[i] = [...]int32{-1, 0, math.MaxInt32, math.MinInt32, rng.Int32()}[rng.IntN(5)]
		}
	}
	if rng.IntN(2) == 0 {
		resp.WDists = make([]float64, n())
		for i := range resp.WDists {
			resp.WDists[i] = randomFloat(rng)
		}
	}
	if rng.IntN(2) == 0 {
		resp.Clusters = make([]uint32, n())
		for i := range resp.Clusters {
			resp.Clusters[i] = rng.Uint32() >> rng.IntN(32)
		}
	}
	if rng.IntN(2) == 0 {
		resp.Same = make([]bool, n())
		for i := range resp.Same {
			resp.Same[i] = rng.IntN(2) == 0
		}
	}
	return resp
}

// floatEdges sit on and around encoding/json's format switches (below
// 1e-6 and from 1e21 up) and at the float64 extremes.
var floatEdges = []float64{
	-1, 0, math.Copysign(0, -1), 1, 0.1, 1e-7, -1e-7, 1e-6, 9.999999999999999e-7, 1e-10,
	1e20, 1e21, -1e21, 999999999999999999999, 1.5e300, 1e-300, 5e-324, math.MaxFloat64,
	math.SmallestNonzeroFloat64, 123456.789, 41.68904554141508,
}

func randomFloat(rng *rand.Rand) float64 {
	switch rng.IntN(3) {
	case 0:
		return floatEdges[rng.IntN(len(floatEdges))]
	case 1:
		return (rng.Float64()*2 - 1) * math.Pow(10, float64(rng.IntN(61)-30))
	}
	if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
		return f
	}
	return -1
}

func checkEncode(t *testing.T, resp queryResponse) {
	got := appendQueryResponse(nil, &resp)
	if want := marshalBody(resp); !bytes.Equal(got, want) {
		t.Fatalf("appendQueryResponse = %s\njson.Marshal        = %s", got, want)
	}
}

// FuzzDecodeRequest holds the request scanner to encoding/json with
// DisallowUnknownFields, the decoder it replaced, on every input as a
// build and as a query body, under a roomy cap and under caps that cut
// the body: the same status and error kind, and equal decoded values,
// except for the two fixes allowedDifference lists. Each input also
// seeds random query responses that the append encoder must write byte
// for byte as json.Marshal does.
func FuzzDecodeRequest(f *testing.F) {
	build := `{"app":"lowstretch","beta":0.25,"seed":1`
	for _, s := range []string{
		build + `}`,
		build + `,"op":"dist","pairs":[[0,1],[2,3]]}`,
		build + `,"op":"dist","pairs":[ [ 0 , 1 ] ,[2,3]] }`,
		build + `,"op":"cluster","level":0,"verts":[0,5,9]}`,
		build + `,"op":"same","level":1,"pairs":[[4294967295,0]]}`,
		`{"app":"lowstretch","weighted":true,"beta":0.5,"delta":2.5,"seed":18446744073709551615}`,
		// Keys: case folding, escapes, the Unicode folds of s and k, and
		// a dotless i, which does not fold to i.
		`{"APP":"lowstretch","BeTa":0.5,"ſeed":3,"Op":"dist","PAIRS":[[1,2]]}`,
		`{"app":"lowstretch","seed":1,"verts":[1],"paırs":[]}`,
		`{"op":"😀","app":"\ud800x","weighted":false}`,
		"{\"app\":\"l\xffow\",\"op\":\"\xc3\"}",
		`{"app":"a\b\f\n\r\t\/\\\"b","op":"\ud83d\ude00"}`,
		`{"op":"\ud83dx","app":"\udc00\ud800\u00e9"}`, `{"op":"\ud83d\u0041"}`,
		// Duplicates: the last one wins, null clears a pointer or slice
		// and leaves a scalar as it is.
		`{"seed":1,"seed":2,"app":"x","app":null,"level":1,"level":null}`,
		`{"pairs":[[1,2,3]],"pairs":[[4,5]],"verts":[1],"verts":null}`,
		`{"pairs":[[1,null]],"pairs":[[1,2]],"verts":[null],"verts":[]}`,
		// Numbers.
		`{"seed":18446744073709551616}`, `{"seed":-0}`, `{"seed":1e3}`, `{"seed":1.0}`,
		`{"level":-0,"beta":-0}`, `{"level":9223372036854775808}`, `{"beta":1e400}`,
		`{"beta":1E-3,"delta":0.5e+2}`, `{"beta":01}`, `{"beta":.5}`, `{"beta":1.}`, `{"beta":-}`,
		`{"pairs":[[4294967296,0]]}`, `{"pairs":[[1.0,2]]}`, `{"pairs":[[-0,1]]}`, `{"verts":[1e2]}`,
		`{"verts":[0123]}`, `{"verts":[99999999999]}`,
		// Wrong kinds.
		`{"seed":"1"}`, `{"weighted":1}`, `{"app":true}`, `{"pairs":{}}`, `{"pairs":[1,2]}`,
		`{"verts":[[1]]}`, `{"pairs":"x"}`, `{"level":[0]}`, `{"pairs":[["1",2]]}`,
		// Pair arity, and the null pair, which is arity 0.
		`{"pairs":[[1]]}`, `{"pairs":[[1,2,3]]}`, `{"pairs":[null]}`, `{"pairs":[]}`, `{"pairs":[[]]}`,
		// The two fixes, and their neighbours that did not change.
		build + `}]]]`, build + `}}`, build + `} x`, build + "}  \n", `{} {}`, `null null`, `null}`,
		build + `,"op":"dist","pairs":[[1,null]]}`, build + `,"op":"cluster","level":0,"verts":[0,null]}`,
		build + `,"op":"dist","pairs":null,"verts":null}`,
		// Top level.
		`null`, `[1,2]`, `"str"`, `123`, `true`, ``, `   `, `nul`,
		// Syntax.
		`{"app":"lowstretch",}`, `{"app" "x"}`, `{"app":"x\q"}`, "{\"app\":\"\x01\"}", `{"a":tru}`,
		`{"a":nul`, `{"app":"x`, `{"app`, `{"x":"\u12"}`, `{,}`, `{"pairs":[[1,2],]}`,
		// Unknown fields with nested values.
		`{"x":{"y":[1,{"z":null}],"w":"\"}"},"app":"lowstretch"}`, `{"workers":8}`,
		strings.Repeat("[", 64) + strings.Repeat("]", 64),
		`{"x":` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth) + `}`,
		`{"x":` + strings.Repeat("[", maxDepth+1),
		// Long enough for the reduced caps to cut.
		build + `}` + strings.Repeat(" ", 200),
		build + `}` + strings.Repeat(" ", 200) + "x",
		build + `,"op":"dist","pairs":[` + strings.Repeat("[1,2],", 40) + `[3,4]]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, limit := range []int64{1 << 20, max(1, int64(len(body))/2), max(1, int64(len(body))-1)} {
			checkDecode(t, body, limit)
		}
		rng := rand.New(rand.NewPCG(bodyFNV(body), uint64(len(body))))
		for i := 0; i < 4; i++ {
			checkEncode(t, randomQueryResponse(rng))
		}
	})
}

// TestAppendQueryResponseFloatEdges pins the encoder on every float edge
// value at once, on top of the fuzz target's random draws.
func TestAppendQueryResponseFloatEdges(t *testing.T) {
	level := 3
	checkEncode(t, queryResponse{Graph: fpHex(1), Op: "dist", Level: &level, Count: len(floatEdges),
		WDists: floatEdges, Checksum: fpHex(2)})
	checkEncode(t, queryResponse{Graph: fpHex(3), Op: "same", Count: 0, Checksum: fpHex(4)})
}

// TestPutScratchDropsLargeBuffers pins pool hygiene: buffers past the
// pooled caps are dropped, smaller ones kept for reuse.
func TestPutScratchDropsLargeBuffers(t *testing.T) {
	sc := &scratch{
		body:     make([]byte, maxPooledBytes+1),
		out:      make([]byte, 16),
		req:      request{pairs: make([]oracle.Pair, maxPooledEntries+1), verts: make([]uint32, 16)},
		dists:    make([]int32, maxPooledEntries+1),
		wdists:   make([]float64, maxPooledEntries+1),
		clusters: make([]uint32, maxPooledEntries+1),
		same:     make([]bool, maxPooledEntries+1),
	}
	putScratch(sc)
	if sc.body != nil || sc.req.pairs != nil || sc.dists != nil || sc.wdists != nil || sc.clusters != nil || sc.same != nil {
		t.Error("putScratch kept a buffer past its cap")
	}
	if sc.out == nil || sc.req.verts == nil {
		t.Error("putScratch dropped a buffer within its cap")
	}
}
