package main

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/workloads"
)

// reproduceApps narrows core.Reproduce to two Table II workloads, as the
// paper's study compares at least two; a single workload panics in the
// predictor's leave-one-out (see README.md). This pair was the cheapest
// of those timed (about 3.3 s per report on 2 cores), so a run holds
// several reports.
var reproduceApps = []string{"repartition", "als"}

// reproduceSeeds is the input pool: pass p renders the report at
// ReproduceOptions.Seed 1 + poolIndex(seed, p, reproduceSeeds).
const reproduceSeeds = 16

// coreSteps names the per-layer core.<step>_s metrics in report order;
// stepOf maps each ReproduceOptions.Progress line onto one of them.
var coreSteps = []string{"tables", "fig2", "fig3", "fig5", "fig6", "predictor", "extensions"}

var stepOf = map[string]string{
	"Table I": "tables", "Table II": "tables",
	"Figure 2": "fig2", "guidelines": "fig2",
	"Figure 3": "fig3", "Figure 5": "fig5", "Figure 6": "fig6",
	"predictor": "predictor", "extensions": "extensions",
}

type reproduceBench struct{ o options }

func newReproduce(o options) *reproduceBench { return &reproduceBench{o} }

func (b *reproduceBench) maxPasses() int { return reproduceSeeds }

// setup warms both apps' code paths with one tiny cell each.
func (b *reproduceBench) setup() error {
	for _, app := range reproduceApps {
		if _, err := (cellSpec{app, workloads.Tiny, memsim.Tier0, cellWarmupSeed}).run(); err != nil {
			return err
		}
	}
	return nil
}

func (b *reproduceBench) close() {}

func reproduceKey(seed int64) string { return fmt.Sprintf("report/seed%d", seed) }

// render runs one narrowed reproduction; progress sees each step's name
// as it completes.
func render(seed int64, progress func(string)) ([]byte, error) {
	var buf bytes.Buffer
	err := guard(func() error {
		core.Reproduce(&buf, core.ReproduceOptions{
			Seed: seed, SkipScaling: true, Workloads: reproduceApps, Progress: progress,
		})
		return nil
	})
	return buf.Bytes(), err
}

func (b *reproduceBench) pass(p int, tr *tracer) passResult {
	seed := int64(1 + poolIndex(b.o.seed, p, reproduceSeeds))
	res := passResult{virtual: map[string]float64{}}
	root := tr.begin("core.Reproduce", 0, -1, 0)
	start := now()
	last := start
	report, err := render(seed, func(step string) {
		if tr != nil {
			t := now()
			tr.add(span{name: "core." + stepOf[step], start: last, end: t,
				parent: root, allocs: -1, args: map[string]any{"step": step}})
			last = t
		}
	})
	tr.end(root, map[string]any{"seed": seed})
	res.opsMS = append(res.opsMS, msSince(start))
	res.wallS = now() - start
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", reproduceKey(seed), err)
		res.failed++
		return res
	}
	if !b.o.refs.check(reproduceKey(seed), digest(report)) {
		res.failed++
		return res
	}
	res.virtual["report_bytes"] = float64(len(report))
	return res
}

func (b *reproduceBench) layers(tr *tracer, sec section) (map[string]float64, opCount) {
	out := map[string]float64{}
	for _, step := range coreSteps {
		// Steps that share a metric (Table I and II; Figure 2 and its
		// guidelines) add up within a report.
		total := 0.0
		for _, s := range tr.named("core." + step) {
			total += s.dur()
		}
		out["core."+step+"_s"] = sec.perPass(total)
	}
	return out, opCount{}
}

func (b *reproduceBench) regen(log func(key, digest string)) (map[string]string, error) {
	out := map[string]string{}
	for s := int64(1); s <= reproduceSeeds; s++ {
		report, err := render(s, nil)
		if err != nil {
			return nil, err
		}
		out[reproduceKey(s)] = digest(report)
		log(reproduceKey(s), out[reproduceKey(s)])
	}
	return out, nil
}
