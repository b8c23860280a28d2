package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/advisor"
	"repro/internal/hibench"
	"repro/internal/telemetry"
)

// The advisor workload is a closed loop of `workers` HTTP clients (one
// connection each) posting /v1/eval to advisor.NewServer on loopback,
// with an empty cache directory per section. The query pool is split
// into blocks of advisorNewPerApp queries per Table II app. Set-up asks
// block 0; pass p asks block p+1, each unseen query followed by
// advisorRepeat-1 repeats drawn from block p and the queries of block p+1
// asked so far. So 1 request in advisorRepeat misses (simulates and
// writes an entry), the rest hit (read the entry back) or wait on a
// simulation still in flight, and every pass draws from a set of the same
// size and makeup.
const (
	advisorNewPerApp = 8
	advisorRepeat    = 10
	advisorSeeds     = 32
	// advisorReplayPasses bounds the traced run's direct Engine.Eval
	// replay, which runs its misses one at a time.
	advisorReplayPasses = 4
)

// The query pool: tiny cells of every app over these placements,
// capacity scenarios and seeds 1..advisorSeeds.
var (
	advisorPlacements = []string{"tier:0", "tier:1", "tier:2", "tier:3", "interleave:0.5"}
	advisorPolicies   = []string{"", "cxl-dram", "nvm-gen2"}
)

type query struct {
	q   hibench.Query
	key string
}

func appPool(app string) []query {
	var out []query
	for _, placement := range advisorPlacements {
		for _, policy := range advisorPolicies {
			for s := int64(1); s <= advisorSeeds; s++ {
				q := hibench.Query{Workload: app, Size: "tiny", Placement: placement, Policy: policy, Seed: s}
				nq, err := q.Normalize()
				if err != nil {
					panic(err) // the pool is built from valid constants
				}
				out = append(out, query{q, nq.Key()})
			}
		}
	}
	return out
}

type advisorBench struct {
	o     options
	pools [][]query // per app, in the seed's order

	dir    string
	reg    *telemetry.Registry
	srv    *http.Server
	served chan struct{}
	url    string
	client *http.Client
	// setupCounters and setupCacheBytes are the engine's counters and
	// cache size once set-up has asked block 0; closedCounters and
	// closedCacheMB cover only the passes after it.
	setupCounters   map[string]int64
	setupCacheBytes int64
	// closing snapshots the engine's counters and cache size, for the
	// per-layer metrics of the section just closed.
	closedCounters map[string]int64
	closedCacheMB  float64
}

func newAdvisor(o options) *advisorBench {
	a := &advisorBench{o: o}
	for i, app := range cellApps() {
		pool := appPool(app)
		rng := passRand(o.seed, i, 3)
		rng.Shuffle(len(pool), func(x, y int) { pool[x], pool[y] = pool[y], pool[x] })
		a.pools = append(a.pools, pool)
	}
	return a
}

// Block 0 is asked in set-up, so a section has one pass fewer than blocks.
func (a *advisorBench) maxPasses() int { return len(a.pools[0])/advisorNewPerApp - 1 }

// block returns block b of the query pool, advisorNewPerApp queries per app.
func (a *advisorBench) block(b int) []query {
	var out []query
	for _, pool := range a.pools {
		out = append(out, pool[b*advisorNewPerApp:(b+1)*advisorNewPerApp]...)
	}
	return out
}

// sequence is pass p's request list: each query of block p+1 followed by
// advisorRepeat-1 repeats drawn from block p and the block p+1 queries
// asked so far.
func (a *advisorBench) sequence(p int) []query {
	seen := a.block(p)
	fresh := a.block(p + 1)
	passRand(a.o.seed, p, 1).Shuffle(len(fresh), func(x, y int) { fresh[x], fresh[y] = fresh[y], fresh[x] })
	rng := passRand(a.o.seed, p, 2)
	seq := make([]query, 0, len(fresh)*advisorRepeat)
	for _, q := range fresh {
		seen = append(seen, q)
		seq = append(seq, q)
		for r := 1; r < advisorRepeat; r++ {
			seq = append(seq, seen[rng.Intn(len(seen))])
		}
	}
	return seq
}

// startServer serves a fresh engine over an empty cache directory.
func (a *advisorBench) startServer() error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(outDir, "advisor-cache-")
	if err != nil {
		return err
	}
	a.dir = dir
	a.reg = telemetry.NewRegistry()
	eng := advisor.NewEngine(advisor.Options{CacheDir: dir, Registry: a.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	a.url = "http://" + ln.Addr().String()
	a.srv = &http.Server{Handler: advisor.NewServer(eng)}
	a.served = make(chan struct{})
	go func() {
		defer close(a.served)
		_ = a.srv.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	a.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers,
	}}
	return nil
}

// setup starts the server and asks block 0 through both clients, which
// also opens their connections. Set-up is not an op, so its answers are
// checked only where a pass repeats them.
func (a *advisorBench) setup() error {
	if err := a.startServer(); err != nil {
		return err
	}
	_, bad := a.ask(a.block(0), nil, false)
	for _, b := range bad {
		if b {
			return fmt.Errorf("set-up query of block 0 failed")
		}
	}
	a.setupCounters = a.reg.Snapshot()
	a.setupCacheBytes = dirBytes(a.dir)
	return nil
}

func (a *advisorBench) close() {
	if a.srv == nil {
		return
	}
	a.closedCounters = a.reg.Snapshot()
	for k, v := range a.setupCounters {
		a.closedCounters[k] -= v
	}
	a.closedCacheMB = float64(dirBytes(a.dir)-a.setupCacheBytes) / 1e6
	// Close the clients' connections first: the server's Shutdown treats a
	// connection that never carried a request (one the transport dialled
	// but did not use) as busy for its first 5 s, and would wait for it.
	a.client.CloseIdleConnections()
	_ = a.srv.Shutdown(context.Background()) // no request is in flight between passes
	<-a.served
	if err := os.RemoveAll(a.dir); err != nil {
		fmt.Fprintln(os.Stderr, "advisor: removing cache dir:", err)
	}
	a.srv = nil
}

// post sends one /v1/eval request and returns the response body.
func (a *advisorBench) post(q hibench.Query) ([]byte, error) {
	body, err := json.Marshal(q)
	if err != nil {
		return nil, err
	}
	resp, err := a.client.Post(a.url+"/v1/eval", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	return data, nil
}

func (a *advisorBench) pass(p int, tr *tracer) passResult {
	simsBefore := a.reg.Get(advisor.CounterSimRuns)
	start := now()
	lat, bad := a.ask(a.sequence(p), tr, true)
	res := passResult{opsMS: lat, wallS: now() - start, virtual: map[string]float64{}}
	for _, b := range bad {
		if b {
			res.failed++
		}
	}
	res.virtual["sim_runs"] = float64(a.reg.Get(advisor.CounterSimRuns) - simsBefore)
	return res
}

// ask sends seq from the closed loop of clients and returns each
// request's latency and whether it failed: an error, a non-200 response
// or, with check, a body that does not match its reference.
func (a *advisorBench) ask(seq []query, tr *tracer, check bool) (lat []float64, bad []bool) {
	// Unseen queries sit at every advisorRepeat-th position of a pass.
	first := func(i int) bool { return i%advisorRepeat == 0 }
	lat = make([]float64, len(seq))
	bad = make([]bool, len(seq))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(seq); i = int(next.Add(1) - 1) {
				q := seq[i]
				t0 := now()
				id := tr.begin("http.POST /v1/eval", i, -1, c+1)
				body, err := a.post(q.q)
				tr.end(id, map[string]any{"key": q.key, "first": first(i)})
				lat[i] = msSince(t0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "advisor %s: %v\n", q.key, err)
					bad[i] = true
				} else if check && !a.o.refs.check(q.key, digest(body)) {
					bad[i] = true
				}
			}
		}(c)
	}
	wg.Wait()
	return lat, bad
}

func (a *advisorBench) layers(tr *tracer, sec section) (map[string]float64, opCount) {
	out := map[string]float64{}
	var httpHitUS []float64
	for _, s := range tr.named("http.POST /v1/eval") {
		if !s.args["first"].(bool) {
			httpHitUS = append(httpHitUS, s.dur()*1e6)
		}
	}
	hitUS, missMS, extra := a.replay(tr, min(len(sec.passes), advisorReplayPasses))
	c := a.closedCounters
	out["advisor.eval_hit_us"] = hitUS
	out["advisor.eval_miss_ms"] = missMS
	out["advisor.http_overhead_us"] = median(httpHitUS) - hitUS
	hits, misses := float64(c[advisor.CounterCacheHit]), float64(c[advisor.CounterCacheMiss])
	out["advisor.hit_ratio"] = ratio(hits, hits+misses)
	out["advisor.dedup_shared"] = sec.perPass(float64(c[advisor.CounterDedupShare]))
	out["advisor.sim_runs"] = sec.perPass(float64(c[advisor.CounterSimRuns]))
	out["advisor.store_errors"] = sec.perPass(float64(c[advisor.CounterStoreError]))
	out["advisor.cache_mb"] = sec.perPass(a.closedCacheMB)
	return out, extra
}

// replay asks block 0 and then the first passes' query sequences of
// Engine.Eval directly, one call at a time on a fresh engine and cache,
// and classifies each call as a hit or a miss by the engine's counters. It returns the median
// hit time in µs and miss time in ms.
func (a *advisorBench) replay(tr *tracer, passes int) (hitUS, missMS float64, n opCount) {
	dir, err := os.MkdirTemp(outDir, "advisor-replay-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisor replay:", err)
		return 0, 0, opCount{1, 1}
	}
	defer os.RemoveAll(dir)
	reg := telemetry.NewRegistry()
	eng := advisor.NewEngine(advisor.Options{CacheDir: dir, Registry: reg})
	var hits, misses []float64
	seq := a.block(0)
	for p := 0; p < passes; p++ {
		seq = append(seq, a.sequence(p)...)
	}
	for i, q := range seq {
		before := reg.Get(advisor.CounterCacheMiss)
		t0 := now()
		id := tr.begin("advisor.Engine.Eval", i, -1, 0)
		res, err := eng.Eval(q.q)
		tr.end(id, map[string]any{"key": q.key})
		d := now() - t0
		n.attempted++
		if err != nil {
			fmt.Fprintf(os.Stderr, "advisor replay %s: %v\n", q.key, err)
			n.failed++
			continue
		}
		// The server answers with the indented encoding plus a newline;
		// the direct result must match the same reference.
		body, err := json.MarshalIndent(res, "", "  ")
		if err != nil || !a.o.refs.check(q.key, digest(append(body, '\n'))) {
			n.failed++
			continue
		}
		if reg.Get(advisor.CounterCacheMiss) > before {
			misses = append(misses, d*1e3)
		} else {
			hits = append(hits, d*1e6)
		}
	}
	return median(hits), median(misses), n
}

func (a *advisorBench) regen(log func(key, digest string)) (map[string]string, error) {
	if err := a.startServer(); err != nil {
		return nil, err
	}
	defer a.close()
	out := map[string]string{}
	for _, app := range cellApps() {
		for _, q := range appPool(app) {
			body, err := a.post(q.q)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", q.key, err)
			}
			out[q.key] = digest(body)
			log(q.key, out[q.key])
		}
	}
	return out, nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
