package main

// endToEndUnits and perLayerUnits are the metric catalog BENCHMARK.json
// declares (a test keeps the two in step). Every traced run prints every
// per-layer metric; the layers its workload bypasses are measured by
// probes (see probeLayers).
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"wall_s":          "s",
	"ops_per_s":       "1/s",
	"op_p50_ms":       "ms",
	"op_tail_ms":      "ms",
	"allocs_per_op":   "count",
	"alloc_mb_per_op": "MB",
	"peak_rss_mb":     "MB",
}

var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"scheduler.stages":             "count",
		"scheduler.tasks":              "count",
		"scheduler.host_us_per_task":   "us",
		"blockmgr.cache_hit_ratio":     "ratio",
		"shuffle.read_mb":              "MB",
		"shuffle.by_reference_ratio":   "ratio",
		"memsim.media_accesses":        "count",
		"tiering.tick_allocs":          "count",
		"blockmgr.get_us":              "us",
		"blockmgr.put_us":              "us",
		"heat.mover_emitted_ratio":     "ratio",
		"heat.mover_stale_drops":       "count",
		"tiering.migrated_blocks":      "count",
		"tiering.migrated_mb":          "MB",
		"tiering.migration_virtual_ms": "ms",
		"advisor.eval_hit_us":          "us",
		"advisor.eval_miss_ms":         "ms",
		"advisor.http_overhead_us":     "us",
		"advisor.hit_ratio":            "ratio",
		"advisor.dedup_shared":         "count",
		"advisor.sim_runs":             "count",
		"advisor.store_errors":         "count",
		"advisor.cache_mb":             "MB",
		"runtime.gc_cpu_frac":          "frac",
		"runtime.gc_cycles":            "count",
		"bench.trace_overhead_frac":    "frac",
	}
	for _, app := range cellApps() {
		u["hibench."+app+".run_ms"] = "ms"
		u["hibench."+app+".allocs"] = "count"
	}
	for _, p := range tierPolicies {
		u["tiering."+string(p)+".tick_ms"] = "ms"
	}
	for _, s := range coreSteps {
		u["core."+s+"_s"] = "s"
	}
	return u
}()
