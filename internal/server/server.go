// Package server is the network-facing decomposition service behind
// cmd/mpxd: a long-running HTTP daemon over the graph registry, the
// hierarchy engines, and the query oracles.
//
// The API (docs/mpxd.md) is built around one fact the whole stack
// guarantees: every result is bit-deterministic in (graph fingerprint,
// seed, config, app) — independent of worker count, traversal direction,
// and scheduling (docs/determinism.md). Responses are therefore perfectly
// cacheable, and the server exploits it: build responses are stored in a
// sharded result cache keyed on that tuple, and a cache hit returns the
// byte-identical body a fresh computation would produce.
//
// Robustness rides the PR 7/9 cancellation plumbing (docs/robustness.md):
// every build runs under the request context (plus an optional server-side
// deadline), so a client disconnect or timeout cancels the build at its
// next engine boundary, all-or-nothing — the registry and any retained
// hierarchies are left bit-identical, the response is a typed 503, and an
// immediate retry reproduces the golden bytes. Contained worker panics
// (parallel.PanicError) surface the same way. Builds are admission-
// controlled: a bounded number run concurrently on the shared pool and
// overload returns a typed 429 with Retry-After instead of queueing to
// collapse. Shutdown drains in-flight requests while refusing new ones.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpx/internal/parallel"
)

// Config configures a Server. The zero value serves with the defaults
// noted on each field.
type Config struct {
	// Pool is the persistent worker pool every build and query batch
	// executes on; nil means parallel.Default().
	Pool *parallel.Pool
	// Workers caps logical parallelism per request (<= 0 means
	// GOMAXPROCS). Worker count never changes a result bit — it shapes
	// scheduling only.
	Workers int
	// MaxBuilds bounds the number of builds in flight at once (admission
	// control); excess build requests get 429 + Retry-After. <= 0 means 2.
	MaxBuilds int
	// BuildTimeout, when positive, caps every build's wall-clock time via
	// a context deadline; a timed-out build returns a typed 503 with no
	// partial state. 0 means only the client's disconnect cancels.
	BuildTimeout time.Duration
	// MaxUploadBytes caps a graph-registration body. <= 0 means 1 GiB.
	MaxUploadBytes int64
	// MaxJSONBytes caps a build/query request body. <= 0 means 8 MiB.
	MaxJSONBytes int64
	// MaxBatch caps the number of queries in one batch. <= 0 means 1<<20.
	MaxBatch int
	// CacheShards is the result cache's shard count, rounded up to a power
	// of two. <= 0 means 16.
	CacheShards int
	// SpoolDir is where uploaded graph bodies are spooled so snapshot
	// uploads can be memory-mapped. "" means a fresh temp dir owned (and
	// removed on Close) by the server.
	SpoolDir string
}

// Server is the mpxd HTTP handler. Create with New, serve with any
// http.Server, and stop with Shutdown (drain) or Close (drain + release
// every registered graph and the owned spool dir).
type Server struct {
	pool     *parallel.Pool
	workers  int
	timeout  time.Duration
	maxUp    int64
	maxJSON  int64
	maxBatch int

	reg      *registry
	cache    *resultCache
	buildSem chan struct{}

	spool    string
	ownSpool bool

	mu      sync.Mutex
	closing bool
	active  int
	idle    chan struct{}
	drained bool

	panics atomic.Int64 // recovered handler panics (0 in a correct server)

	// buildGate, when non-nil, is invoked while holding an admission slot,
	// just before the build runs — the test hook the overload and shutdown
	// suites use to park a build deterministically.
	buildGate func()
}

// New returns a Server ready to serve. The caller owns cfg.Pool; the
// server owns its spool dir only when cfg.SpoolDir is "".
func New(cfg Config) (*Server, error) {
	maxBuilds := cfg.MaxBuilds
	if maxBuilds <= 0 {
		maxBuilds = 2
	}
	maxUp := cfg.MaxUploadBytes
	if maxUp <= 0 {
		maxUp = 1 << 30
	}
	maxJSON := cfg.MaxJSONBytes
	if maxJSON <= 0 {
		maxJSON = 8 << 20
	}
	maxBatch := cfg.MaxBatch
	if maxBatch <= 0 {
		maxBatch = 1 << 20
	}
	spool, ownSpool := cfg.SpoolDir, false
	if spool == "" {
		dir, err := os.MkdirTemp("", "mpxd-spool-*")
		if err != nil {
			return nil, fmt.Errorf("server: creating spool dir: %w", err)
		}
		spool, ownSpool = dir, true
	}
	return &Server{
		pool:     cfg.Pool,
		workers:  cfg.Workers,
		timeout:  cfg.BuildTimeout,
		maxUp:    maxUp,
		maxJSON:  maxJSON,
		maxBatch: maxBatch,
		reg:      newRegistry(),
		cache:    newResultCache(cfg.CacheShards),
		buildSem: make(chan struct{}, maxBuilds),
		spool:    spool,
		ownSpool: ownSpool,
		idle:     make(chan struct{}),
	}, nil
}

// begin admits one request; false means the server is shutting down.
func (s *Server) begin() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return false
	}
	s.active++
	return true
}

func (s *Server) end() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	if s.closing && s.active == 0 && !s.drained {
		s.drained = true
		close(s.idle)
	}
}

// Shutdown refuses new requests and waits for in-flight ones to finish
// (in-flight builds run to completion; their results land in the cache as
// usual). It returns ctx.Err() if ctx expires first — the work keeps
// draining in the background either way. Safe to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closing = true
	if s.active == 0 && !s.drained {
		s.drained = true
		close(s.idle)
	}
	s.mu.Unlock()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close shuts the server down (waiting at most a minute for in-flight
// work), evicts every registered graph — releasing snapshot mappings and
// spooled upload files — and removes the spool dir when the server owns
// it.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.Shutdown(ctx)
	s.reg.dropAll()
	if s.ownSpool {
		if rmErr := os.RemoveAll(s.spool); err == nil {
			err = rmErr
		}
	}
	return err
}

// Panics reports how many handler panics the recovery middleware has
// contained; a correct server never increments it (the engine layers turn
// worker panics into parallel.PanicError before they reach a handler).
func (s *Server) Panics() int64 { return s.panics.Load() }

// errInfo is the typed error envelope every non-2xx response carries.
type errInfo struct {
	Code    int    `json:"code"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
}

type errorBody struct {
	Error errInfo `json:"error"`
}

// Error kinds: machine-readable discriminators for the status codes that
// have more than one cause.
const (
	kindBadRequest   = "bad_request"
	kindNotFound     = "not_found"
	kindMethod       = "method_not_allowed"
	kindTooLarge     = "too_large"
	kindOverloaded   = "overloaded"
	kindCancelled    = "cancelled"
	kindFault        = "fault"
	kindShuttingDown = "shutting_down"
	kindInternal     = "internal"
)

func writeJSON(w http.ResponseWriter, code int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	w.Write(body)
}

func marshalBody(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		// Response types are fixed structs of plain fields; failure here is
		// a programming error, not an input condition.
		panic(fmt.Sprintf("server: marshaling response: %v", err))
	}
	return append(b, '\n')
}

func writeError(w http.ResponseWriter, code int, kind, format string, args ...any) {
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, marshalBody(errorBody{Error: errInfo{
		Code:    code,
		Kind:    kind,
		Message: fmt.Sprintf(format, args...),
	}}))
}

// writeBuildError maps a build failure to its typed status: cancellation
// (client disconnect, deadline, or an injected fault context) and
// contained worker panics are 503 — the service is healthy, this request
// did not complete, and a retry is safe because the abort was
// all-or-nothing; anything else is a 500.
func writeBuildError(w http.ResponseWriter, err error) {
	var pe *parallel.PanicError
	switch {
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusServiceUnavailable, kindCancelled,
			"build cancelled at an engine boundary (deadline or client disconnect); no partial state was kept, retry is safe: %v", err)
	case errors.As(err, &pe):
		writeError(w, http.StatusServiceUnavailable, kindFault,
			"build failed on a contained worker fault; no partial state was kept, retry is safe: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, kindInternal, "build failed: %v", err)
	}
}

// ServeHTTP routes every request. All parsing is total: malformed input
// of any shape yields a typed 4xx, never a panic (the fuzz target pins
// this; the recovery wrapper is a last-resort backstop that also counts).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			writeError(w, http.StatusInternalServerError, kindInternal, "internal error: %v", rec)
		}
	}()
	if !s.begin() {
		writeError(w, http.StatusServiceUnavailable, kindShuttingDown, "server is shutting down")
		return
	}
	defer s.end()
	s.route(w, r)
}

func (s *Server) route(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch path {
	case "/v1/healthz":
		if !allow(w, r, http.MethodGet) {
			return
		}
		writeJSON(w, http.StatusOK, marshalBody(struct {
			Status string `json:"status"`
		}{"ok"}))
		return
	case "/v1/stats":
		if !allow(w, r, http.MethodGet) {
			return
		}
		s.handleStats(w)
		return
	case "/v1/graphs":
		switch r.Method {
		case http.MethodGet:
			s.handleList(w)
		case http.MethodPost:
			s.handleRegister(w, r)
		default:
			methodErr(w, r, http.MethodGet, http.MethodPost)
		}
		return
	}
	if rest, ok := strings.CutPrefix(path, "/v1/graphs/"); ok {
		fpHex, action, _ := strings.Cut(rest, "/")
		fp, ok := parseFingerprint(fpHex)
		if !ok {
			writeError(w, http.StatusBadRequest, kindBadRequest,
				"graph fingerprint must be exactly 16 lowercase hex digits, got %q", fpHex)
			return
		}
		switch action {
		case "":
			switch r.Method {
			case http.MethodGet:
				s.handleInfo(w, fp)
			case http.MethodDelete:
				s.handleEvict(w, fp)
			default:
				methodErr(w, r, http.MethodGet, http.MethodDelete)
			}
		case "build":
			if allow(w, r, http.MethodPost) {
				s.handleBuild(w, r, fp)
			}
		case "query":
			if allow(w, r, http.MethodPost) {
				s.handleQuery(w, r, fp)
			}
		default:
			writeError(w, http.StatusNotFound, kindNotFound,
				"unknown graph action %q (valid: build, query)", action)
		}
		return
	}
	writeError(w, http.StatusNotFound, kindNotFound, "unknown path %q", path)
}

func allow(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method != method {
		methodErr(w, r, method)
		return false
	}
	return true
}

func methodErr(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	writeError(w, http.StatusMethodNotAllowed, kindMethod,
		"method %s not allowed (allowed: %s)", r.Method, strings.Join(allowed, ", "))
}

// parseFingerprint accepts exactly the fingerprint spelling the server
// emits: 16 lowercase hex digits ("%016x").
func parseFingerprint(s string) (uint64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	var fp uint64
	for i := 0; i < 16; i++ {
		c := s[i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		default:
			return 0, false
		}
		fp = fp<<4 | d
	}
	return fp, true
}

func fpHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

type statsResponse struct {
	Graphs         int   `json:"graphs"`
	CacheEntries   int   `json:"cacheEntries"`
	InflightBuilds int   `json:"inflightBuilds"`
	Panics         int64 `json:"panics"`
}

func (s *Server) handleStats(w http.ResponseWriter) {
	writeJSON(w, http.StatusOK, marshalBody(statsResponse{
		Graphs:         s.reg.size(),
		CacheEntries:   s.cache.size(),
		InflightBuilds: len(s.buildSem),
		Panics:         s.panics.Load(),
	}))
}
