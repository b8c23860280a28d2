// Command perfbench is the repository's host-ledger benchmark. One process
// runs four workloads, each stressing one layer of the simulator while
// leaving the others nearly idle:
//
//	cells      the Fig. 2 characterization grid, one hibench.Run per op
//	tiering    tiering.Engine epochs over blockmgr Get/Put bursts
//	reproduce  a narrowed core.Reproduce report per op
//	advisor    /v1/eval requests from 2 loopback clients to advisor.NewServer
//
// Every simulated output is checked against a stored reference digest
// (ref/<workload>.json); a mismatch counts as a failed op. An untraced run
// (--trace 0) prints the end-to-end metrics; a traced run (--trace 1)
// repeats the timed section with spans around every call the benchmark makes
// into the program, writes the spans as Chrome trace-event JSON under
// out/, and prints the per-layer metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload cells --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload cells --regen
//
// --regen rewrites ref/<workload>.json from the current program and logs
// every digest it writes; a measured run never writes a reference.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workers is the benchmark's concurrency: phase-1 task workers for cells,
// HTTP clients (and connections) for advisor, and GOMAXPROCS everywhere.
// The box the benchmark was sized on has 2 cores; perfbench refuses to
// start on fewer.
const workers = 2

// setupRuns is how many fresh processes time the set-up; setup_s is
// their median.
const setupRuns = 9

// workload is one benchmark workload. A section is setup, passes until
// the time is up, close. A pass is the workload's fixed unit of work, so
// every pass does the same kind and amount of work and per-op figures do
// not drift with how many passes fit.
type workload interface {
	// setup builds what the first pass needs (servers, warm-up ops).
	setup() error
	// pass runs pass p, timing each op and checking each output.
	// tr is nil in an untraced section.
	pass(p int, tr *tracer) passResult
	// maxPasses bounds a section to the passes the reference pool covers,
	// so no op repeats one done earlier in the section.
	maxPasses() int
	close()
	// layers derives the per-layer metrics from a traced section. Ops it
	// makes itself (advisor's direct Engine.Eval replay) are checked like
	// any other and returned as extra.
	layers(tr *tracer, sec section) (metrics map[string]float64, extra opCount)
	// regen evaluates the whole reference pool.
	regen(log func(key, digest string)) (map[string]string, error)
}

// passResult is one pass: its op latencies, failures and the virtual
// counts it produced (which must not depend on tracing).
type passResult struct {
	opsMS   []float64
	failed  int
	wallS   float64
	virtual map[string]float64
	// peakRSSMB is the process's peak resident memory during the pass.
	peakRSSMB float64
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	refs     *refs
}

func newWorkload(o options) (workload, error) {
	switch o.workload {
	case "cells":
		return newCells(o), nil
	case "tiering":
		return newTiering(o), nil
	case "reproduce":
		return newReproduce(o), nil
	case "advisor":
		return newAdvisor(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cells, tiering, reproduce, advisor or all)", o.workload)
}

// checkWorkers refuses a configuration that would start more compute
// goroutines or connections than the machine has cores.
func checkWorkers(want, nproc int) error {
	if want > nproc {
		return fmt.Errorf("benchmark needs %d cores for its %d workers, machine has %d", want, want, nproc)
	}
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"cells", "tiering", "reproduce", "advisor"}

func run() error {
	var (
		o          options
		trace      int
		seconds    int
		regen      bool
		setupChild bool
		commit     string
	)
	flag.StringVar(&o.workload, "workload", "cells", "workload: cells, tiering, reproduce, advisor or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed section in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs a traced section and prints per-layer metrics")
	flag.BoolVar(&regen, "regen", false, "rewrite ref/<workload>.json from the current program")
	flag.BoolVar(&setupChild, "setup-child", false, "set up once, report readiness and exit (used to time setup_s)")
	flag.StringVar(&commit, "commit", "unknown", "commit of the program under test, recorded with the result")
	flag.Parse()
	o.seconds = float64(seconds)
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1, got %d", seconds)
	}
	if err := checkWorkers(workers, runtime.NumCPU()); err != nil {
		return err
	}
	runtime.GOMAXPROCS(workers)

	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	if setupChild {
		return setUpOnce(o)
	}
	// With several workloads the final line carries every workload's
	// metrics, prefixed with its name.
	final := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		o.workload = name
		if regen {
			if err := regenerate(o); err != nil {
				return err
			}
			continue
		}
		res, err := measure(o, trace, commit)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		final.Correct = final.Correct && res.Correct
		final.Attempted += res.Attempted
		final.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 {
				k = name + "." + k
			}
			final.Metrics[k] = m
		}
	}
	if regen {
		return nil
	}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func prepare(o options) (workload, options, error) {
	r, err := loadRefs(o.workload)
	if err != nil {
		return nil, o, err
	}
	o.refs = r
	w, err := newWorkload(o)
	return w, o, err
}

// setUpOnce is a set-up-only process: it reports readiness on stdout
// once the workload could start its first timed op.
func setUpOnce(o options) error {
	w, _, err := prepare(o)
	if err != nil {
		return err
	}
	if err := w.setup(); err != nil {
		return err
	}
	fmt.Println("ready")
	w.close()
	return nil
}

// measure runs one workload's sections, prints its metrics by name with
// their units, and records the result under out/.
func measure(o options, trace int, commit string) (result, error) {
	w, o, err := prepare(o)
	if err != nil {
		return result{}, err
	}
	meta := runMeta(o, trace, commit)
	var setupS float64
	if trace == 0 {
		if setupS, err = timeSetup(o); err != nil {
			return result{}, err
		}
	}
	untraced, err := runSection(w, o.seconds, nil)
	if err != nil {
		return result{}, err
	}
	attempted, failed := untraced.ops(), untraced.failed()
	metrics := map[string]metric{}
	if trace == 0 {
		metrics = endToEnd(untraced, setupS)
	} else {
		tr := newTracer()
		traced, err := runSection(w, o.seconds, tr)
		if err != nil {
			return result{}, err
		}
		attempted += traced.ops()
		failed += traced.failed()
		if mismatch := virtualMismatch(untraced, traced); mismatch != "" {
			fmt.Fprintln(os.Stderr, "virtual counts differ between traced and untraced sections:", mismatch)
			failed++
		}
		layers, extra := w.layers(tr, traced)
		attempted += extra.attempted
		failed += extra.failed
		for _, other := range workloadNames {
			if other == o.workload {
				continue
			}
			probe, extra, err := probeLayers(o, other, tr)
			if err != nil {
				return result{}, fmt.Errorf("probing %s: %w", other, err)
			}
			attempted += extra.attempted
			failed += extra.failed
			for name, v := range probe {
				if _, own := layers[name]; !own {
					layers[name] = v
				}
			}
		}
		for name, v := range untraced.gcLayers() {
			layers[name] = v
		}
		layers["bench.trace_overhead_frac"] = traced.medianPassS()/untraced.medianPassS() - 1
		for name, unit := range perLayerUnits {
			v, ok := layers[name]
			if !ok {
				return result{}, fmt.Errorf("per-layer metric %s was not measured", name)
			}
			metrics[name] = metric{v, unit}
		}
		path, err := tr.write(o.workload, o.seed)
		if err != nil {
			return result{}, err
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
		tr.printSelfTimes(os.Stderr)
	}

	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println(metaLine(meta))
	for _, name := range names {
		fmt.Printf("metric %-36s %.6g %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	_, tailPct, beyond := untraced.tail()
	fmt.Printf("op_tail_ms is the median over %d passes of each pass's p%.2f latency (%d of %d ops per pass lie beyond it)\n",
		len(untraced.passes), tailPct, beyond, untraced.ops()/len(untraced.passes))
	fmt.Printf("failed_frac %.6g (%d of %d ops failed)\n", float64(failed)/float64(attempted), failed, attempted)
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}
	return res, writeResult(o, meta, res)
}

// probeLayers measures the layers a traced workload bypasses: one traced
// pass of the workload named other, whose layer metrics fill in those the
// traced workload does not produce itself. Its spans go to tr, which is
// safe because no two workloads record spans of the same name. The
// probe's ops are checked like any other.
func probeLayers(o options, other string, tr *tracer) (map[string]float64, opCount, error) {
	o.workload = other
	w, _, err := prepare(o)
	if err != nil {
		return nil, opCount{}, err
	}
	sec, err := runSection(w, 0, tr)
	if err != nil {
		return nil, opCount{}, err
	}
	layers, extra := w.layers(tr, sec)
	extra.attempted += sec.ops()
	extra.failed += sec.failed()
	return layers, extra, nil
}

// opCount counts checked ops.
type opCount struct{ attempted, failed int }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta records what the result was measured on.
func runMeta(o options, trace int, commit string) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    workers,
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

func metaLine(meta map[string]any) string {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := []string{"meta"}
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, meta[k]))
	}
	return strings.Join(parts, " ")
}

func writeResult(o options, meta map[string]any, res result) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{"meta": meta, "result": res}, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%v.json", o.workload, o.seed, meta["trace"])
	return os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
}

// timeSetup starts setupRuns fresh copies of this program in set-up-only
// mode, one after another, and returns the median time from starting each
// process to it reporting ready: process start, package initialization,
// reference loading and the workload's set-up.
func timeSetup(o options) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(self, "--setup-child", "--workload", o.workload,
			"--seed", fmt.Sprint(o.seed))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return 0, err
		}
		start := now()
		if err := cmd.Start(); err != nil {
			return 0, err
		}
		line, readErr := bufio.NewReader(stdout).ReadString('\n')
		elapsed := now() - start
		waitErr := cmd.Wait()
		if readErr != nil || strings.TrimSpace(line) != "ready" {
			return 0, fmt.Errorf("set-up process did not report ready (%q): %v", line, errors.Join(readErr, waitErr))
		}
		if waitErr != nil {
			return 0, fmt.Errorf("set-up process: %w", waitErr)
		}
		times = append(times, elapsed)
	}
	return median(times), nil
}

func regenerate(o options) error {
	w, err := newWorkload(o)
	if err != nil {
		return err
	}
	digests, err := w.regen(func(key, digest string) {
		fmt.Fprintf(os.Stderr, "regen %s %s %s\n", o.workload, key, digest)
	})
	if err != nil {
		return err
	}
	path, err := writeRefs(o.workload, digests)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "regen %s: wrote %d reference digests to %s\n", o.workload, len(digests), path)
	return nil
}
