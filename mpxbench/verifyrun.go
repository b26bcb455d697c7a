package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"mpx/internal/graph"
	"mpx/internal/oracle"
)

type buildKey struct {
	graph, app string
	beta       float64
	seed       uint64
}

// libCall is one library build made by the verifier: its time and heap
// allocation, the per-layer apps.* evidence of a traced run.
type libCall struct {
	app   string
	graph string
	dur   time.Duration
	alloc uint64
}

// verify checks every recorded response against direct library calls on
// the same graph bytes, outside the timed window. A build must match the
// library's levels, tree edges / blocks / components, fingerprint and
// per-level stats; the first response to every query batch must match
// the oracle answers and checksum, and every later response to the batch
// must be byte-identical to it. Any mismatch fails the operation.
func (b *bench) verify() error {
	if b.graphs == nil {
		if err := b.openGraphs(); err != nil {
			return err
		}
	}
	for _, rec := range b.builds[b.verifiedBuilds:] {
		if err := b.verifyBuild(rec); err != nil {
			return err
		}
	}
	b.verifiedBuilds = len(b.builds)
	if b.oracles == nil {
		return fmt.Errorf("no verified target build to answer queries (%v)", b.failNotes)
	}
	for i, body := range b.firstBody {
		if _, done := b.batchOK[i]; done {
			continue
		}
		d := b.oracles.diffQuery(body, b.batches[i], b.cfg.corrupt && i == 0)
		if d != "" {
			b.note("query batch %d (%s/%d): %s", i, b.batches[i].op, b.batches[i].size(), d)
		}
		b.batchOK[i] = d == ""
	}
	for _, q := range b.queries[b.verifiedQueries:] {
		q.ok = q.status == http.StatusOK && q.hash == b.firstHash[q.batch] && b.batchOK[q.batch]
		if q.status != http.StatusOK {
			b.note("query batch %d: status %d", q.batch, q.status)
		}
	}
	b.verifiedQueries = len(b.queries)
	return nil
}

// openGraphs opens the run's snapshot files through the library, checking
// that the library's fingerprint matches what the service registered.
func (b *bench) openGraphs() error {
	b.graphs = map[string]*graph.Graph{}
	for _, name := range []string{"main", "side"} {
		sp := b.tr.begin("graph.open", 0, -1)
		op, err := graph.OpenAny(b.files[name])
		b.tr.end(sp)
		if err != nil {
			return err
		}
		b.opened = append(b.opened, op)
		sp = b.tr.begin("graph.fingerprint", 0, -1)
		fp := op.Graph.Fingerprint()
		b.tr.end(sp)
		if hex16(fp) != b.fps[name] {
			b.note("graph %s: service fingerprint %s, library %s", name, b.fps[name], hex16(fp))
			b.adminFail++
		}
		b.graphs[name] = op.Graph
	}
	return nil
}

// verifyBuild compares one build response with the library's build of
// the same configuration, computing (and caching) that build on first use.
func (b *bench) verifyBuild(rec *buildRec) error {
	if rec.status != http.StatusOK {
		b.note("build %s/%s seed %d: status %d: %.200s", rec.graph, rec.app, rec.seed, rec.status, rec.body)
		return nil
	}
	k := buildKey{rec.graph, rec.app, rec.beta, rec.seed}
	want, ok := b.wants[k]
	if !ok {
		sp := b.tr.begin("apps."+rec.app, rec.id, -1)
		a0 := readRuntime().allocBytes
		t0 := time.Now()
		w, inc, err := libraryBuild(b.pool, b.graphs[rec.graph], rec.app, rec.beta, rec.seed)
		dur := time.Since(t0)
		alloc := readRuntime().allocBytes - a0
		b.tr.end(sp)
		if err != nil {
			return fmt.Errorf("library %s build: %w", rec.app, err)
		}
		b.libCalls[rec.id] = libCall{rec.app, rec.graph, dur, alloc}
		if rec.graph == "main" && rec.app == "lowstretch" && rec.seed == b.targetSeed {
			sp := b.tr.begin("oracle.build", rec.id, -1)
			t0 := time.Now()
			b.oracles = &queryOracles{
				dist:   oracle.NewDistance(inc.Tree(), b.pool, 0),
				member: oracle.NewMembership(inc.Hierarchy(), b.pool, 0),
			}
			b.oracleBuild = time.Since(t0)
			b.tr.end(sp)
			w.QueryLevels = b.oracles.member.Levels()
		}
		want = w
		b.wants[k] = want
	}
	if b.cfg.corrupt && !b.corrupted {
		want.Fingerprint, b.corrupted = "corrupted-expectation", true
	}
	if d := diffBuild(rec.body, want); d != "" {
		b.note("build %s/%s seed %d: %s", rec.graph, rec.app, rec.seed, d)
		return nil
	}
	rec.ok = true
	return json.Unmarshal(rec.body, &rec.resp)
}
