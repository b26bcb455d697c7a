package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"mpx/internal/graph"
	"mpx/internal/graph/snapshot"
	"mpx/internal/oracle"
	"mpx/internal/parallel"
	"mpx/internal/server"
)

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 5
	// batchesPerKind is the number of distinct pre-encoded batches per
	// query kind; requests cycle through them, so every response after the
	// first of a batch is checked by byte identity.
	batchesPerKind = 16
	// sloLimit is the open-loop latency limit, timed from when a request
	// was due.
	sloLimit = 10 * time.Millisecond
	// sidePerSlice is the least number of side builds in a phase-B slice.
	// The first sidePerSlice × rounds side builds are therefore a fixed set
	// of (app, seed) pairs, the builds cut_frac_over_beta is taken over.
	sidePerSlice = 3
)

// queryKinds is the fixed mix: every op at batch sizes 1, 64 and 1024.
var queryKinds = []struct {
	op   string
	size int
}{
	{"dist", 1}, {"dist", 64}, {"dist", 1024},
	{"cluster", 1}, {"cluster", 64}, {"cluster", 1024},
	{"same", 1}, {"same", 64}, {"same", 1024},
}

// batch is one pre-encoded query request.
type batch struct {
	op    string
	level int
	pairs []oracle.Pair
	verts []uint32
	body  []byte
}

func (b *batch) size() int {
	if b.op == "cluster" {
		return len(b.verts)
	}
	return len(b.pairs)
}

type buildRec struct {
	id     int
	graph  string // "main" or "side"
	app    string
	beta   float64
	seed   uint64
	phase  string
	status int
	body   []byte
	lat    time.Duration
	ok     bool
	resp   buildResp // decoded once verified
}

type queryRec struct {
	batch  int
	phase  string
	status int
	hash   uint64
	lat    time.Duration // from send (closed loop) or from due (open loop)
	late   time.Duration // open loop: how late the generator sent an unblocked request
	paced  bool          // open loop: the request waited for its due time
	ok     bool
}

// bench is one run: the in-process server on a loopback listener, two
// client connections, and every record the run keeps for verification.
type bench struct {
	cfg  config
	w    workload
	pool *parallel.Pool
	srv  *server.Server
	hs   *http.Server
	// served is closed when the listener's Serve loop has returned.
	served chan struct{}
	base   string
	c1     *http.Client // the main connection
	c2     *http.Client // phase B's build connection
	tr     *tracer

	files map[string]string // graph name -> snapshot file
	fps   map[string]string // graph name -> fingerprint (hex)
	rng   *rand.Rand
	// sideRng draws the phase-B build loop's seeds, so the two connections'
	// draws never interleave.
	sideRng *rand.Rand

	targetSeed   uint64
	targetLevels int
	batches      []*batch // kind k owns batches[k*batchesPerKind:(k+1)*batchesPerKind]
	firstBody    map[int][]byte
	firstHash    map[int]uint64
	hashSeed     maphash.Seed

	mu        sync.Mutex
	nextID    int
	builds    []*buildRec
	queries   []*queryRec
	admin     int // register/evict operations attempted
	adminFail int
	failNotes []string

	// Verification state: the library's graphs and expected builds, the
	// target build's oracles, and how many records are already checked.
	graphs          map[string]*graph.Graph
	opened          []*graph.Opened
	wants           map[buildKey]buildResp
	libCalls        map[int]libCall
	oracles         *queryOracles
	oracleBuild     time.Duration
	batchOK         map[int]bool
	verifiedBuilds  int
	verifiedQueries int
	corrupted       bool

	setupSamples []float64
	gc           runtimeDelta  // over the timed rounds
	batchCursor  [9]int        // next batch per query kind
	sideCount    int           // side builds sent so far
	lagFirst     []float64     // open-loop send lags, first quarter of each slice
	lagLast      []float64     // and last quarter
	stealFrac    float64       // host CPU steal over the timed rounds
	spanCost     time.Duration // traced runs: one span's begin + end
	liveHeap     uint64
	loadgenBad   string
}

type runtimeDelta struct {
	gcCycles uint64
	gcCPU    float64
	totalCPU float64
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// start generates the workload's graphs as snapshot files (the server and
// the verifier only ever see those bytes), then starts the server.
func (b *bench) start() error {
	if err := os.MkdirAll(b.cfg.work, 0o755); err != nil {
		return err
	}
	b.rng = rand.New(rand.NewPCG(b.cfg.seed, 0x6d7078626e6368))
	b.sideRng = rand.New(rand.NewPCG(b.cfg.seed, 0x73696465))
	b.files = map[string]string{}
	b.fps = map[string]string{}
	for i, gen := range []func(uint64) *graph.Graph{b.w.main, b.w.side} {
		name := []string{"main", "side"}[i]
		g := gen(b.cfg.seed*2 + uint64(i))
		path := filepath.Join(b.cfg.work, name+".mpxsnap")
		if err := snapshot.WriteFile(path, g, nil); err != nil {
			return err
		}
		b.files[name] = path
		if name == "main" {
			b.makeBatches(g.NumVertices())
		}
	}
	spool := filepath.Join(b.cfg.work, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return err
	}
	b.pool = parallel.NewPool(runtime.GOMAXPROCS(0))
	srv, err := server.New(server.Config{Pool: b.pool, SpoolDir: spool})
	if err != nil {
		return err
	}
	b.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.hs = &http.Server{Handler: srv}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln)
	}()
	b.base = "http://" + ln.Addr().String()
	b.c1, b.c2 = newClient(), newClient()
	b.firstBody = map[int][]byte{}
	b.firstHash = map[int]uint64{}
	b.hashSeed = maphash.MakeSeed()
	b.wants = map[buildKey]buildResp{}
	b.libCalls = map[int]libCall{}
	b.batchOK = map[int]bool{}
	return nil
}

func (b *bench) stop() {
	b.hs.Close()
	<-b.served
	b.c1.CloseIdleConnections()
	b.c2.CloseIdleConnections()
	b.srv.Close()
	for _, op := range b.opened {
		op.Close()
	}
	b.pool.Close()
	os.RemoveAll(b.cfg.work)
}

// makeBatches draws the query batches over n vertices. Levels are fixed
// up after the target build reports its level count.
func (b *bench) makeBatches(n int) {
	for _, k := range queryKinds {
		for i := 0; i < batchesPerKind; i++ {
			bt := &batch{op: k.op, level: i}
			if k.op == "cluster" {
				bt.verts = make([]uint32, k.size)
				for j := range bt.verts {
					bt.verts[j] = uint32(b.rng.IntN(n))
				}
			} else {
				bt.pairs = make([]oracle.Pair, k.size)
				for j := range bt.pairs {
					bt.pairs[j] = oracle.Pair{U: uint32(b.rng.IntN(n)), V: uint32(b.rng.IntN(n))}
				}
			}
			b.batches = append(b.batches, bt)
		}
	}
}

func (b *bench) encodeBatches() {
	for _, bt := range b.batches {
		req := map[string]any{"app": "lowstretch", "beta": b.betaOf("main", "lowstretch"), "seed": b.targetSeed, "op": bt.op}
		if bt.op == "dist" {
			bt.level = 0
		} else {
			bt.level %= b.targetLevels
			req["level"] = bt.level
		}
		if bt.op == "cluster" {
			req["verts"] = bt.verts
		} else {
			pairs := make([][2]uint32, len(bt.pairs))
			for i, p := range bt.pairs {
				pairs[i] = [2]uint32{p.U, p.V}
			}
			req["pairs"] = pairs
		}
		bt.body, _ = json.Marshal(req)
	}
}

func (b *bench) note(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.failNotes) < 8 {
		b.failNotes = append(b.failNotes, fmt.Sprintf(format, args...))
	}
}

// do sends one request on c and reads the whole response.
func do(c *http.Client, method, url string, body io.Reader, size int64) (int, []byte, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.ContentLength = size
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register uploads a graph's snapshot bytes; evict deletes it.
func (b *bench) register(c *http.Client, name string) {
	f, err := os.Open(b.files[name])
	if err == nil {
		defer f.Close()
		var st os.FileInfo
		if st, err = f.Stat(); err == nil {
			sp := b.tr.begin("server.register", 0, -1)
			var code int
			var data []byte
			code, data, err = do(c, http.MethodPost, b.base+"/v1/graphs", f, st.Size())
			b.tr.end(sp)
			if err == nil && code != http.StatusCreated {
				err = fmt.Errorf("status %d: %s", code, data)
			}
			if err == nil {
				var info struct {
					Fingerprint string `json:"fingerprint"`
				}
				if err = json.Unmarshal(data, &info); err == nil {
					b.mu.Lock()
					b.fps[name] = info.Fingerprint
					b.mu.Unlock()
				}
			}
		}
	}
	b.adminDone("register "+name, err)
}

func (b *bench) evict(c *http.Client, name string) {
	b.mu.Lock()
	fp := b.fps[name]
	b.mu.Unlock()
	code, data, err := do(c, http.MethodDelete, b.base+"/v1/graphs/"+fp, nil, 0)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d: %s", code, data)
	}
	b.adminDone("evict "+name, err)
}

func (b *bench) adminDone(what string, err error) {
	b.mu.Lock()
	b.admin++
	if err != nil {
		b.adminFail++
	}
	b.mu.Unlock()
	if err != nil {
		b.note("%s: %v", what, err)
	}
}

// build sends one cold build and records it for verification.
func (b *bench) build(c *http.Client, graphName, app string, seed uint64, phase string) *buildRec {
	b.mu.Lock()
	b.nextID++
	rec := &buildRec{id: b.nextID, graph: graphName, app: app, beta: b.betaOf(graphName, app), seed: seed, phase: phase}
	fp := b.fps[graphName]
	b.mu.Unlock()
	body, _ := json.Marshal(map[string]any{"app": app, "beta": rec.beta, "seed": seed})
	sp := b.tr.begin("server.http_build."+app, rec.id, -1)
	t0 := time.Now()
	code, data, err := do(c, http.MethodPost, b.base+"/v1/graphs/"+fp+"/build", bytes.NewReader(body), int64(len(body)))
	rec.lat = time.Since(t0)
	b.tr.end(sp)
	rec.status, rec.body = code, data
	if err != nil {
		b.note("build %s/%s seed %d: %v", graphName, app, seed, err)
	}
	b.mu.Lock()
	b.builds = append(b.builds, rec)
	b.mu.Unlock()
	return rec
}

func (b *bench) betaOf(graphName, app string) float64 {
	if graphName == "main" {
		return b.w.mainBetas[app]
	}
	return roadBetas[app]
}

// query sends batch i on c and records its status, latency and body hash;
// the first body of every batch is kept for full verification.
func (b *bench) query(c *http.Client, i int, phase string) *queryRec {
	bt := b.batches[i]
	rec := &queryRec{batch: i, phase: phase}
	sp := b.tr.begin("server.http_query."+bt.op, 0, -1)
	t0 := time.Now()
	b.mu.Lock() // the phase-B build loop re-registers side concurrently
	fp := b.fps["main"]
	b.mu.Unlock()
	code, data, err := do(c, http.MethodPost, b.base+"/v1/graphs/"+fp+"/query", bytes.NewReader(bt.body), int64(len(bt.body)))
	rec.lat = time.Since(t0)
	b.tr.end(sp)
	rec.status = code
	if err != nil {
		b.note("query batch %d: %v", i, err)
	} else {
		rec.hash = maphash.Bytes(b.hashSeed, data)
		if _, ok := b.firstBody[i]; !ok && code == http.StatusOK {
			b.firstBody[i], b.firstHash[i] = data, rec.hash
		}
	}
	b.queries = append(b.queries, rec)
	return rec
}

// scaled converts a per-10-seconds count to this run's --seconds.
func (b *bench) scaled(n int) int {
	return max(1, int(float64(n)*b.cfg.seconds/10+0.5))
}

// setup registers both graphs and runs the builds the timed phases rely
// on: the retained lowstretch target on main, plus (build workloads) one
// cold build per other app. It runs setupReps times, evicting in between,
// each time with fresh build seeds, so setup_s (the median) rests on
// several builds per app rather than on one seed's hierarchy depth. The
// last set-up's target is the one the queries read.
func (b *bench) setup() {
	var target *buildRec
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			b.evict(b.c1, "main")
			b.evict(b.c1, "side")
		}
		b.targetSeed = b.rng.Uint64()
		warm := map[string]uint64{"blocks": b.rng.Uint64(), "connectivity": b.rng.Uint64()}
		runtime.GC()
		t0 := time.Now()
		b.register(b.c1, "main")
		b.register(b.c1, "side")
		target = b.build(b.c1, "main", "lowstretch", b.targetSeed, "setup")
		if !b.w.serving() {
			b.build(b.c1, "main", "blocks", warm["blocks"], "setup")
			b.build(b.c1, "main", "connectivity", warm["connectivity"], "setup")
		}
		b.setupSamples = append(b.setupSamples, time.Since(t0).Seconds())
	}
	var resp buildResp
	if target.status == http.StatusOK && json.Unmarshal(target.body, &resp) == nil && resp.QueryLevels > 0 {
		b.targetLevels = resp.QueryLevels
	} else {
		b.targetLevels = 1
		b.note("target build returned no query levels")
	}
	b.encodeBatches()
}

// timed runs the workload's rounds. Each round interleaves the phases, so
// every metric samples the whole run instead of one stretch of it (the
// host's speed drifts by tens of percent over seconds):
//
//   - build workloads: every evictEvery rounds, evict main, register it
//     again and rebuild the query target, which bounds retained builds;
//   - phase A: closed-loop 1024-pair dist requests, then the mixed kinds
//     round robin, on the main connection;
//   - phase B: open-loop mixed requests at the workload's rate on the main
//     connection, beside back-to-back cold side builds on the second;
//   - phase 1 (build workloads): one cycle of cold builds on main.
//
// Afterwards the side graph is evicted, so the live heap measured next
// holds a fixed set of retained builds.
func (b *bench) timed() {
	r0 := readRuntime()
	t0, s0 := cpuTicks()
	for r := 0; r < b.scaled(b.w.rounds); r++ {
		if !b.w.serving() && r > 0 && r%b.w.evictEvery == 0 {
			b.evict(b.c1, "main")
			b.register(b.c1, "main")
			b.build(b.c1, "main", "lowstretch", b.targetSeed, "retarget")
		}
		b.phaseA()
		b.phaseB()
		for _, app := range b.w.cycle {
			b.build(b.c1, "main", app, b.rng.Uint64(), "phase1")
		}
	}
	b.evict(b.c1, "side")
	if t1, s1 := cpuTicks(); t1 > t0 {
		b.stealFrac = float64(s1-s0) / float64(t1-t0)
	}
	r1 := readRuntime()
	b.gc = runtimeDelta{r1.gcCycles - r0.gcCycles, r1.gcCPU - r0.gcCPU, r1.totalCPU - r0.totalCPU}
	// A backlog that grows within the open-loop slices means the rate
	// exceeds what the service sustains: the run is invalid, not slow.
	if len(b.lagFirst) > 0 {
		first, last := median(b.lagFirst), median(b.lagLast)
		if last > 0.05 && last > first {
			b.loadgenBad = fmt.Sprintf("open-loop backlog grew: median send lag %.3fs in the last quarter of each slice vs %.3fs in the first", last, first)
		}
	}
}

// phaseA is one closed-loop read-only slice on the main connection.
func (b *bench) phaseA() {
	const dist = 2 // kind index of dist/1024
	for i := 0; i < b.w.distPerRound; i++ {
		b.query(b.c1, dist*batchesPerKind+b.nextBatch(dist), "dist1024")
	}
	for i := 0; i < b.w.mixPerRound; i++ {
		k := i % len(queryKinds)
		b.query(b.c1, k*batchesPerKind+b.nextBatch(k), "mix")
	}
}

// nextBatch cycles through kind k's batches.
func (b *bench) nextBatch(k int) int {
	i := b.batchCursor[k] % batchesPerKind
	b.batchCursor[k]++
	return i
}

// phaseB is one open-loop slice: mixed requests at the open-loop rate for
// the workload's openSlice on the main connection, timed from when each
// was due, while the second connection runs cold side builds back to back
// (at least sidePerSlice; the slice ends when the build in flight
// completes).
func (b *bench) phaseB() {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for built := 1; ; built++ {
			if b.sideCount > 0 && b.sideCount%b.w.sideEvictEvery == 0 {
				b.evict(b.c2, "side")
				b.register(b.c2, "side")
			}
			b.build(b.c2, "side", apps[b.sideCount%len(apps)], b.sideRng.Uint64(), "side")
			b.sideCount++
			if built < sidePerSlice {
				continue
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	t0 := time.Now()
	interval := time.Duration(float64(time.Second) / b.cfg.rate)
	n := max(1, int(b.w.openSlice.Seconds()*b.cfg.rate+0.5))
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		paced := false
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
			paced = true
		}
		sent := time.Now()
		k := i % len(queryKinds)
		rec := b.query(b.c1, k*batchesPerKind+b.nextBatch(k), "open")
		rec.paced = paced
		rec.late = sent.Sub(due)
		rec.lat = time.Since(due)
		switch {
		case i < n/4:
			b.lagFirst = append(b.lagFirst, rec.late.Seconds())
		case i >= n-n/4:
			b.lagLast = append(b.lagLast, rec.late.Seconds())
		}
	}
	close(stop)
	<-done
}
