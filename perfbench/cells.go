package main

import (
	"fmt"
	"math/rand"
	"os"

	"repro/internal/hibench"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// cellSeeds is the size of the cells input pool: pass p simulates the
// whole grid at simulator seed 1 + poolIndex(seed, p, cellSeeds), so no
// cell repeats within a run and every cell has a reference digest.
const cellSeeds = 16

// cellWarmupSeed seeds the warm-up cells, outside the pool so a cache of
// earlier results could never serve a measured cell.
const cellWarmupSeed = 1000

var (
	cellSizes = []workloads.Size{workloads.Tiny, workloads.Small, workloads.Large}
	cellTiers = []memsim.TierID{memsim.Tier0, memsim.Tier2}
)

func cellApps() []string { return workloads.Names() }

type cellSpec struct {
	app  string
	size workloads.Size
	tier memsim.TierID
	seed int64
}

func (c cellSpec) key() string {
	return fmt.Sprintf("%s/%s/tier%d/seed%d", c.app, c.size, int(c.tier), c.seed)
}

func (c cellSpec) run() (hibench.RunResult, error) {
	return hibench.Run(hibench.RunSpec{
		Workload: c.app, Size: c.size, Tier: c.tier,
		TaskParallelism: workers, Seed: c.seed,
	})
}

// cellDigest covers a cell's whole virtual ledger.
func cellDigest(r hibench.RunResult) string {
	return digestValues(r.Duration, r.Metrics, r.BoundEnergy, r.DRAMEnergy, r.DCPMEnergy,
		r.NVMCounters, r.Summary, r.Copies)
}

// grid lists the Fig. 2 cells at one simulator seed.
func grid(seed int64) []cellSpec {
	var out []cellSpec
	for _, app := range cellApps() {
		for _, size := range cellSizes {
			for _, tier := range cellTiers {
				out = append(out, cellSpec{app, size, tier, seed})
			}
		}
	}
	return out
}

// cells runs the characterization grid, one fresh hibench.Run per op.
type cells struct{ o options }

func newCells(o options) *cells { return &cells{o} }

func (c *cells) maxPasses() int { return cellSeeds }

// setup warms the code paths of every app with one tiny cell each.
func (c *cells) setup() error {
	for _, app := range cellApps() {
		if _, err := (cellSpec{app, workloads.Tiny, memsim.Tier0, cellWarmupSeed}).run(); err != nil {
			return err
		}
	}
	return nil
}

func (c *cells) close() {}

func (c *cells) pass(p int, tr *tracer) passResult {
	// Every pass runs the grid in the same order, so the garbage one cell
	// leaves for the next one's collections is the same in every pass and
	// every run; the seed picks the simulator seeds.
	specs := grid(int64(1 + poolIndex(c.o.seed, p, cellSeeds)))
	res := passResult{virtual: map[string]float64{}}
	start := now()
	for op, spec := range specs {
		t0 := now()
		var run hibench.RunResult
		var err error
		tr.allocCall("hibench.Run", op, -1, func() map[string]any {
			err = guard(func() (err error) {
				run, err = spec.run()
				return err
			})
			return map[string]any{"app": spec.app, "size": spec.size.String(), "tier": int(spec.tier),
				"tasks": run.Metrics.Tasks}
		})
		res.opsMS = append(res.opsMS, msSince(t0))
		if err != nil || !c.o.refs.check(spec.key(), cellDigest(run)) {
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", spec.key(), err)
			}
			res.failed++
			continue
		}
		m := run.Metrics
		v := res.virtual
		v["stages"] += float64(m.Stages)
		v["tasks"] += float64(m.Tasks)
		v["cache_hits"] += float64(m.CacheHits)
		v["cache_misses"] += float64(m.CacheMisses)
		v["shuffle_read_bytes"] += float64(m.ShuffleRead)
		v["media_accesses"] += float64(m.MediaReads + m.MediaWrites)
		for _, cc := range run.Copies {
			v["copy_local_bytes"] += float64(cc.LocalBytes)
			v["copy_remote_bytes"] += float64(cc.RemoteBytes)
		}
	}
	res.wallS = now() - start
	return res
}

func (c *cells) layers(tr *tracer, sec section) (map[string]float64, opCount) {
	out := map[string]float64{}
	runs := tr.named("hibench.Run")
	var totalS, tasks float64
	for _, app := range cellApps() {
		var ms, allocs []float64
		for _, s := range runs {
			if s.args["app"] == app {
				ms = append(ms, s.dur()*1e3)
				allocs = append(allocs, float64(s.allocs))
			}
		}
		out["hibench."+app+".run_ms"] = mean(ms)
		out["hibench."+app+".allocs"] = mean(allocs)
	}
	for _, s := range runs {
		totalS += s.dur()
		tasks += float64(s.args["tasks"].(int))
	}
	v := sec.sumVirtual()
	out["scheduler.stages"] = sec.perPass(v["stages"])
	out["scheduler.tasks"] = sec.perPass(v["tasks"])
	out["scheduler.host_us_per_task"] = ratio(totalS*1e6, tasks)
	out["blockmgr.cache_hit_ratio"] = ratio(v["cache_hits"], v["cache_hits"]+v["cache_misses"])
	out["shuffle.read_mb"] = sec.perPass(v["shuffle_read_bytes"]) / 1e6
	out["shuffle.by_reference_ratio"] = ratio(v["copy_local_bytes"], v["copy_local_bytes"]+v["copy_remote_bytes"])
	out["memsim.media_accesses"] = sec.perPass(v["media_accesses"])
	return out, opCount{}
}

func (c *cells) regen(log func(key, digest string)) (map[string]string, error) {
	out := map[string]string{}
	for s := 1; s <= cellSeeds; s++ {
		for _, spec := range grid(int64(s)) {
			run, err := spec.run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.key(), err)
			}
			out[spec.key()] = cellDigest(run)
			log(spec.key(), out[spec.key()])
		}
	}
	return out, nil
}

// poolIndex maps pass p of a run to an item of a pool of k: consecutive
// passes take consecutive items, and the seed picks the first.
func poolIndex(seed int64, p, k int) int {
	return int((uint64(seed) + uint64(p)) % uint64(k))
}

// passRand is the input generator of pass p: the same seed and pass give
// the same inputs.
func passRand(seed int64, p int, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(p)*7_919 + salt))
}

// guard runs fn, turning a panic into an error so that it counts as a
// failed op instead of ending the run.
func guard(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn()
}
