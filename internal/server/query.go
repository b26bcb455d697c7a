package server

import (
	"math"
	"net/http"
	"strconv"

	"mpx/internal/oracle"
)

// queryResponse carries exactly one result array (matching op) plus an
// FNV-1a checksum over the result bits, so two servers (or one server
// across a restart) can be compared on the body bytes alone.
type queryResponse struct {
	Graph    string    `json:"graph"`
	Op       string    `json:"op"`
	Level    *int      `json:"level,omitempty"`
	Count    int       `json:"count"`
	Dists    []int32   `json:"dists,omitempty"`
	WDists   []float64 `json:"wdists,omitempty"`
	Clusters []uint32  `json:"clusters,omitempty"`
	Same     []bool    `json:"same,omitempty"`
	Checksum string    `json:"checksum"`
}

// handleQuery serves POST /v1/graphs/{fp}/query against a previously
// built hierarchy. Queries are pure reads on immutable oracles — no
// admission slot, safe under unbounded concurrency (docs/queries.md).
//
// The body's build-configuration fields (app/weighted/beta/delta/seed)
// select which retained build answers — a build must have been POSTed
// first; queries never build implicitly, so their latency is always
// oracle-lookup latency. Op selects the oracle:
//
//	dist    — tree distance per pair (int32 for unweighted builds,
//	          float64 for weighted; -1 = different components)
//	cluster — level-l cluster id per vertex (unweighted lowstretch only)
//	same    — same-cluster bit per pair at level l (ditto)
//
// Following the cmd/mpx flag-audit rule, a field the op would silently
// ignore is a hard 400: dist takes pairs and no level, cluster takes
// verts and a level, same takes pairs and a level. The body, the decoded
// batch, the answers and the response all live in one pooled scratch.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, fp uint64) {
	e := s.reg.acquire(fp)
	if e == nil {
		writeError(w, http.StatusNotFound, kindNotFound, "graph %s is not registered", fpHex(fp))
		return
	}
	defer s.reg.release(e)
	sc := getScratch()
	defer putScratch(sc)
	if !s.decodeRequest(w, r, sc, queryFields) {
		return
	}
	req := &sc.req
	if req.App != "lowstretch" {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"queries serve lowstretch builds only (got app %s)", quoted(req.App))
		return
	}
	switch req.op {
	case "dist", "cluster", "same":
	default:
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"unknown op %s (valid: dist, cluster, same)", quoted(req.op))
		return
	}
	bt := e.getBuilt(req.key())
	if bt == nil {
		writeError(w, http.StatusNotFound, kindNotFound,
			"no built hierarchy for this configuration on graph %s; POST /v1/graphs/%s/build first",
			fpHex(fp), fpHex(fp))
		return
	}
	resp := queryResponse{Graph: fpHex(fp), Op: req.op}
	if req.hasLevel {
		resp.Level = &req.level
	}
	n := bt.n
	h := fnvOffset
	switch req.op {
	case "dist":
		if req.hasLevel {
			writeError(w, http.StatusBadRequest, kindBadRequest, "dist queries take no level; drop it")
			return
		}
		pairs, ok := s.takePairs(w, req, n)
		if !ok {
			return
		}
		resp.Count = len(pairs)
		if bt.wdist != nil {
			out := resize(sc.wdists, len(pairs))
			sc.wdists = out
			bt.wdist.DistBatch(pairs, out)
			for _, d := range out {
				h = fnvU64(h, math.Float64bits(d))
			}
			resp.WDists = out
		} else {
			out := resize(sc.dists, len(pairs))
			sc.dists = out
			bt.dist.DistBatch(pairs, out)
			for _, d := range out {
				h = fnvU64(h, uint64(uint32(d)))
			}
			resp.Dists = out
		}
	case "cluster":
		level, ok := s.takeLevel(w, req, bt)
		if !ok {
			return
		}
		if req.hasPairs {
			writeError(w, http.StatusBadRequest, kindBadRequest, "cluster queries take verts, not pairs")
			return
		}
		if len(req.verts) == 0 || len(req.verts) > s.maxBatch {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"verts must hold between 1 and %d vertices, got %d", s.maxBatch, len(req.verts))
			return
		}
		for i, v := range req.verts {
			if int(v) >= n {
				writeError(w, http.StatusBadRequest, kindBadRequest,
					"verts[%d] = %d out of range (n=%d)", i, v, n)
				return
			}
		}
		out := resize(sc.clusters, len(req.verts))
		sc.clusters = out
		bt.member.ClusterBatch(level, req.verts, out)
		for _, c := range out {
			h = fnvU64(h, uint64(c))
		}
		resp.Count = len(req.verts)
		resp.Clusters = out
	case "same":
		level, ok := s.takeLevel(w, req, bt)
		if !ok {
			return
		}
		pairs, ok := s.takePairs(w, req, n)
		if !ok {
			return
		}
		out := resize(sc.same, len(pairs))
		sc.same = out
		bt.member.SameClusterBatch(level, pairs, out)
		for _, b := range out {
			x := uint64(0)
			if b {
				x = 1
			}
			h = fnvU64(h, x)
		}
		resp.Count = len(pairs)
		resp.Same = out
	}
	resp.Checksum = fpHex(h)
	sc.out = appendQueryResponse(sc.out[:0], &resp)
	writeJSON(w, http.StatusOK, sc.out)
}

// takePairs validates the request's pairs against the vertex count; a
// false return means the error response has been written.
func (s *Server) takePairs(w http.ResponseWriter, req *request, n int) ([]oracle.Pair, bool) {
	if req.hasVerts {
		writeError(w, http.StatusBadRequest, kindBadRequest, "%s queries take pairs, not verts", req.op)
		return nil, false
	}
	if len(req.pairs) == 0 || len(req.pairs) > s.maxBatch {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"pairs must hold between 1 and %d pairs, got %d", s.maxBatch, len(req.pairs))
		return nil, false
	}
	checked := req.pairs
	if req.badPair >= 0 {
		checked = checked[:req.badPair]
	}
	for i, p := range checked {
		if int(p.U) >= n || int(p.V) >= n {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"pairs[%d] = [%d, %d] out of range (n=%d)", i, p.U, p.V, n)
			return nil, false
		}
	}
	if req.badPair >= 0 {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"pairs[%d] must be [u, v], got %d elements", req.badPair, req.badPairLen)
		return nil, false
	}
	return req.pairs, true
}

// takeLevel validates the membership level of a cluster/same query
// against the retained hierarchy's level count.
func (s *Server) takeLevel(w http.ResponseWriter, req *request, bt *built) (int, bool) {
	if bt.member == nil {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"%s queries need an unweighted lowstretch build (weighted builds retain no hierarchy)", req.op)
		return 0, false
	}
	if !req.hasLevel {
		writeError(w, http.StatusBadRequest, kindBadRequest, "%s queries require a level in [0, %d)", req.op, bt.levels)
		return 0, false
	}
	l := req.level
	if l < 0 || l >= bt.levels {
		writeError(w, http.StatusBadRequest, kindBadRequest,
			"level %d out of range (levels=%d)", l, bt.levels)
		return 0, false
	}
	return l, true
}

// appendQueryResponse appends resp's JSON encoding and a newline to b,
// byte for byte what marshalBody(resp) writes. Graph, Op and Checksum go
// in unescaped: handleQuery fills them only with fpHex output and the
// validated op names, none of which JSON escapes.
func appendQueryResponse(b []byte, resp *queryResponse) []byte {
	b = append(b, `{"graph":"`...)
	b = append(b, resp.Graph...)
	b = append(b, `","op":"`...)
	b = append(b, resp.Op...)
	b = append(b, '"')
	if resp.Level != nil {
		b = append(b, `,"level":`...)
		b = strconv.AppendInt(b, int64(*resp.Level), 10)
	}
	b = append(b, `,"count":`...)
	b = strconv.AppendInt(b, int64(resp.Count), 10)
	if len(resp.Dists) > 0 {
		b = appendArray(append(b, `,"dists":`...), resp.Dists, func(b []byte, d int32) []byte {
			return strconv.AppendInt(b, int64(d), 10)
		})
	}
	if len(resp.WDists) > 0 {
		b = appendArray(append(b, `,"wdists":`...), resp.WDists, appendFloat)
	}
	if len(resp.Clusters) > 0 {
		b = appendArray(append(b, `,"clusters":`...), resp.Clusters, func(b []byte, c uint32) []byte {
			return strconv.AppendUint(b, uint64(c), 10)
		})
	}
	if len(resp.Same) > 0 {
		b = appendArray(append(b, `,"same":`...), resp.Same, strconv.AppendBool)
	}
	b = append(b, `,"checksum":"`...)
	b = append(b, resp.Checksum...)
	return append(b, "\"}\n"...)
}

func appendArray[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// digits that round-trip, in exponent form below 1e-6 and from 1e21 up,
// with a one-digit negative exponent unpadded (1e-07 becomes 1e-7). Like
// json.Marshal behind marshalBody, it panics on a non-finite value.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		panic("server: marshaling response: json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}
