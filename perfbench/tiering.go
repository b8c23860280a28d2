package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"

	"repro/internal/blockmgr"
	"repro/internal/executor"
	"repro/internal/memsim"
	"repro/internal/numa"
	"repro/internal/shuffle"
	"repro/internal/sim"
	"repro/internal/tiering"
)

// The tiering workload drives the migration engine directly, because in
// real cells Tick is under 1% of CPU and a change to tiering or heat
// cannot show there. One op is one epoch: each executor replays the
// block traffic of one measured tiered cell (see tierPatterns), then the
// engine ticks. A pass is one round of tierEpochs epochs per policy, each
// on a fresh 2-executor pool whose fast budget is a quarter of the
// blocks' bytes.
const (
	tierExecs = 2
	// tierGens generations of tierGenBlocks blocks per executor: lda/large
	// ends its run with 6 cached generations.
	tierGens      = 6
	tierGenBlocks = 342
	tierBlocks    = tierGens * tierGenBlocks // per executor
	tierEpochs    = 100
	tierEpochNS   = 10 * sim.Millisecond
	// tierSeeds is the input pool: pass p uses size seed
	// 1 + poolIndex(seed, p, tierSeeds) for every policy's round.
	tierSeeds      = 24
	tierWarmupSeed = 1000
)

// pattern is the block traffic of one tiered large cell, counted through
// the block managers' observer (README, "Tiering traffic"), scaled to
// tierBlocks blocks.
type pattern struct {
	// generational: each epoch reads every block of the generation written
	// the epoch before, once, and writes the next generation over the
	// oldest (lda). Otherwise each epoch reads every block once (rf).
	generational bool
	// The cell's two block sizes; one block in smallOneIn is small.
	small, large int64
	smallOneIn   int
}

// tierPatterns gives executor i the traffic of tierPatterns[i].
var tierPatterns = [tierExecs]pattern{
	{generational: true, small: 111224, large: 183536, smallOneIn: 6}, // lda/large
	{generational: false, small: 9912, large: 10736, smallOneIn: 2},   // rf/large
}

var tierPolicies = []tiering.PolicyKind{tiering.Watermark, tiering.BandwidthAware, tiering.Age, tiering.Forecast}

// round is one policy's engine over a populated pool.
type round struct {
	policy tiering.PolicyKind
	seed   int64
	k      *sim.Kernel
	pool   *executor.Pool
	eng    *tiering.Engine
	sizes  [tierExecs][tierBlocks]int64
}

func (r *round) key() string { return fmt.Sprintf("%s/seed%d", r.policy, r.seed) }

func newRound(policy tiering.PolicyKind, seed int64) (*round, error) {
	r := &round{policy: policy, seed: seed, k: sim.NewKernel()}
	h := fnv.New64a()
	h.Write([]byte(r.key()))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	sys := memsim.NewSystem(r.k)
	// The tiered cells' placement: heap and shuffle on local DRAM, the
	// cache on the far NVDIMM group, which is the slow tier.
	placement := executor.Placement{Heap: memsim.Tier0, Shuffle: memsim.Tier0, Cache: memsim.Tier3}
	r.pool = executor.NewPlacedPool(tierExecs, 4, numa.BindingForTier(memsim.Tier0), sys, placement, 0)
	var footprint int64
	for ex, pat := range tierPatterns {
		for i := range r.sizes[ex] {
			r.sizes[ex][i] = pat.large
			if rng.Intn(pat.smallOneIn) == 0 {
				r.sizes[ex][i] = pat.small
			}
			footprint += r.sizes[ex][i]
		}
	}
	cfg := tiering.DefaultConfig(policy)
	cfg.Slow = memsim.Tier3
	cfg.FastBudgetBytes = footprint / tierExecs / 4
	eng, err := tiering.NewEngine(cfg, r.pool, shuffle.NewStore(), executor.DefaultCostModel(), seed)
	if err != nil {
		return nil, err
	}
	r.eng = eng
	for ex := range r.sizes {
		for i := range r.sizes[ex] {
			r.put(ex, i)
		}
	}
	return r, nil
}

func (r *round) put(ex, part int) {
	r.pool.Executors[ex].Blocks.Put(blockmgr.BlockID{RDD: 1, Partition: part}, nil, r.sizes[ex][part], 1)
}

// epoch runs epoch e (from 0): virtual time advances, every executor
// replays its pattern's reads and writes, and the engine ticks.
func (r *round) epoch(e, op, parent int, tr *tracer) {
	r.k.After(tierEpochNS, func(sim.Time) {})
	r.k.Run()
	for ex, pat := range tierPatterns {
		blocks := r.pool.Executors[ex].Blocks
		// Generation g holds partitions [g*tierGenBlocks, (g+1)*tierGenBlocks);
		// population wrote generation tierGens-1 last.
		first, n := 0, tierBlocks
		if pat.generational {
			first, n = (e+tierGens-1)%tierGens*tierGenBlocks, tierGenBlocks
		}
		id := tr.begin("blockmgr.Get", op, parent, 0)
		for part := first; part < first+n; part++ {
			blocks.Get(blockmgr.BlockID{RDD: 1, Partition: part})
		}
		tr.end(id, map[string]any{"n": n})
		if !pat.generational {
			continue
		}
		first = e % tierGens * tierGenBlocks
		id = tr.begin("blockmgr.Put", op, parent, 0)
		for part := first; part < first+tierGenBlocks; part++ {
			r.put(ex, part)
		}
		tr.end(id, map[string]any{"n": tierGenBlocks})
	}
	tr.allocCall("tiering.Tick", op, parent, func() map[string]any {
		r.eng.Tick()
		return map[string]any{"policy": string(r.policy)}
	})
}

// digest covers the round's migration history, heat history and totals.
func (r *round) digest() string {
	return digestValues(r.eng.Plans(), r.eng.Heatmaps(), r.eng.MigratedBlocks(),
		r.eng.MigratedBytes(), r.eng.MigrationNS(), r.eng.MigrationCounters())
}

// count adds the round's virtual counts to v.
func (r *round) count(v map[string]float64) {
	v["migrated_blocks"] += float64(r.eng.MigratedBlocks())
	v["migrated_bytes"] += float64(r.eng.MigratedBytes())
	v["migration_ns"] += r.eng.MigrationNS()
	for _, c := range r.eng.MigrationCounters() {
		v["media_accesses"] += float64(c.MediaReads + c.MediaWrites)
	}
	for ex := 0; ex < tierExecs; ex++ {
		hits, misses, _ := r.pool.Executors[ex].Blocks.Stats()
		v["cache_hits"] += float64(hits)
		v["cache_misses"] += float64(misses)
		if mv := r.eng.Mover(ex); mv != nil {
			st := mv.Stats()
			v["mover_enqueued"] += float64(st.Enqueued)
			v["mover_emitted"] += float64(st.Emitted)
			v["mover_stale"] += float64(st.DroppedStale)
		}
	}
}

type tieringBench struct{ o options }

func newTiering(o options) *tieringBench { return &tieringBench{o} }

func (t *tieringBench) maxPasses() int { return tierSeeds }

// setup warms every policy's code paths with a few epochs.
func (t *tieringBench) setup() error {
	for _, policy := range tierPolicies {
		r, err := newRound(policy, tierWarmupSeed)
		if err != nil {
			return err
		}
		for e := 0; e < 5; e++ {
			r.epoch(e, e, -1, nil)
		}
	}
	return nil
}

func (t *tieringBench) close() {}

func (t *tieringBench) pass(p int, tr *tracer) passResult {
	seed := int64(1 + poolIndex(t.o.seed, p, tierSeeds))
	res := passResult{virtual: map[string]float64{}}
	start := now()
	for _, policy := range tierPolicies {
		var r *round
		first := len(res.opsMS)
		err := guard(func() (err error) {
			// One span covers the round's set-up calls: executor.NewPool,
			// tiering.NewEngine and the Puts that populate the pool.
			id := tr.begin("tiering.round.setup", first, -1, 0)
			r, err = newRound(policy, seed)
			tr.end(id, map[string]any{"policy": string(policy)})
			if err != nil {
				return err
			}
			for e := 0; e < tierEpochs; e++ {
				op := len(res.opsMS)
				t0 := now()
				id := tr.begin("epoch", op, -1, 0)
				r.epoch(e, op, id, tr)
				tr.end(id, nil)
				res.opsMS = append(res.opsMS, msSince(t0))
			}
			return nil
		})
		// The digest covers the whole round, so a wrong one fails every
		// epoch of it.
		if err != nil {
			fmt.Fprintf(os.Stderr, "tiering %s/seed%d: %v\n", policy, seed, err)
			res.failed += max(len(res.opsMS)-first, 1)
			continue
		}
		if !t.o.refs.check(r.key(), r.digest()) {
			res.failed += len(res.opsMS) - first
			continue
		}
		r.count(res.virtual)
	}
	res.wallS = now() - start
	return res
}

func (t *tieringBench) layers(tr *tracer, sec section) (map[string]float64, opCount) {
	out := map[string]float64{}
	ticks := tr.named("tiering.Tick")
	var allocs []float64
	for _, policy := range tierPolicies {
		var ms []float64
		for _, s := range ticks {
			if s.args["policy"] == string(policy) {
				ms = append(ms, s.dur()*1e3)
			}
		}
		out["tiering."+string(policy)+".tick_ms"] = median(ms)
	}
	for _, s := range ticks {
		allocs = append(allocs, float64(s.allocs))
	}
	out["tiering.tick_allocs"] = mean(allocs)
	out["blockmgr.get_us"] = perCallUS(tr.named("blockmgr.Get"))
	out["blockmgr.put_us"] = perCallUS(tr.named("blockmgr.Put"))
	v := sec.sumVirtual()
	out["blockmgr.cache_hit_ratio"] = ratio(v["cache_hits"], v["cache_hits"]+v["cache_misses"])
	out["memsim.media_accesses"] = sec.perPass(v["media_accesses"])
	out["heat.mover_emitted_ratio"] = ratio(v["mover_emitted"], v["mover_enqueued"])
	out["heat.mover_stale_drops"] = sec.perPass(v["mover_stale"])
	out["tiering.migrated_blocks"] = sec.perPass(v["migrated_blocks"])
	out["tiering.migrated_mb"] = sec.perPass(v["migrated_bytes"]) / 1e6
	out["tiering.migration_virtual_ms"] = sec.perPass(v["migration_ns"]) / 1e6
	return out, opCount{}
}

// perCallUS is the mean time per call of burst spans carrying their call
// count in args["n"].
func perCallUS(bursts []span) float64 {
	var secs, calls float64
	for _, s := range bursts {
		secs += s.dur()
		calls += float64(s.args["n"].(int))
	}
	return ratio(secs*1e6, calls)
}

func (t *tieringBench) regen(log func(key, digest string)) (map[string]string, error) {
	out := map[string]string{}
	for s := 1; s <= tierSeeds; s++ {
		for _, policy := range tierPolicies {
			r, err := newRound(policy, int64(s))
			if err != nil {
				return nil, err
			}
			for e := 0; e < tierEpochs; e++ {
				r.epoch(e, e, -1, nil)
			}
			out[r.key()] = r.digest()
			log(r.key(), out[r.key()])
		}
	}
	return out, nil
}
