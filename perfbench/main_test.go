package main

import (
	"encoding/json"
	"os"
	"testing"
)

func testOptions(t *testing.T, workload string, seed int64) options {
	t.Helper()
	r, err := loadRefs(workload)
	if err != nil {
		t.Fatal(err)
	}
	return options{workload: workload, seed: seed, refs: r}
}

// onePass runs a section that stops after its first pass.
func onePass(t *testing.T, o options, tr *tracer) (workload, section) {
	t.Helper()
	w, err := newWorkload(o)
	if err != nil {
		t.Fatal(err)
	}
	sec, err := runSection(w, 0, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sec.passes) != 1 || sec.ops() == 0 {
		t.Fatalf("%s: %d passes, %d ops; want 1 pass with ops", o.workload, len(sec.passes), sec.ops())
	}
	return w, sec
}

// TestShortRunsPass runs one pass of every workload at the default seed
// and at a held-out seed no reference was tuned on; every output must
// match its reference.
func TestShortRunsPass(t *testing.T) {
	for _, name := range []string{"cells", "tiering", "reproduce", "advisor"} {
		for _, seed := range []int64{1, 90210} {
			_, sec := onePass(t, testOptions(t, name, seed), nil)
			if f := sec.failed(); f != 0 {
				t.Errorf("%s seed %d: %d of %d ops failed", name, seed, f, sec.ops())
			}
		}
	}
}

// TestCorruptedReferenceFails flips every reference digest and expects
// every checked output to count as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	for _, name := range workloadNames {
		o := testOptions(t, name, 1)
		for k, d := range o.refs.digests {
			o.refs.digests[k] = "0" + d[1:]
			if d[0] == '0' {
				o.refs.digests[k] = "1" + d[1:]
			}
		}
		_, sec := onePass(t, o, nil)
		if got, want := sec.failed(), sec.ops(); got != want {
			t.Errorf("%s with corrupted references: %d of %d ops failed, want all", name, got, want)
		}
	}
}

// TestTracedMatchesUntraced checks that tracing changes no virtual count,
// that every layer metric a workload derives is catalogued, and that the
// workloads together measure every catalogued layer, as a traced run and
// its probes of the other workloads must.
func TestTracedMatchesUntraced(t *testing.T) {
	measured := map[string]bool{
		// measure adds these to every traced run itself.
		"runtime.gc_cpu_frac": true, "runtime.gc_cycles": true, "bench.trace_overhead_frac": true,
	}
	for _, name := range workloadNames {
		o := testOptions(t, name, 7)
		_, untraced := onePass(t, o, nil)
		tr := newTracer()
		w, traced := onePass(t, o, tr)
		if len(untraced.passes[0].virtual) == 0 {
			t.Errorf("%s: no virtual counts recorded", name)
		}
		if m := virtualMismatch(untraced, traced); m != "" {
			t.Errorf("%s: %s", name, m)
		}
		if len(tr.all()) == 0 {
			t.Errorf("%s: traced section recorded no spans", name)
		}
		layers, extra := w.layers(tr, traced)
		if extra.failed != 0 {
			t.Errorf("%s: %d of %d extra ops failed", name, extra.failed, extra.attempted)
		}
		for metric := range layers {
			if _, ok := perLayerUnits[metric]; !ok {
				t.Errorf("%s: layer metric %s is not in the catalog", name, metric)
			}
			measured[metric] = true
		}
	}
	for metric := range perLayerUnits {
		if !measured[metric] {
			t.Errorf("catalogued layer metric %s is measured by no workload", metric)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric catalog and
// BENCHMARK.json in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []entry
		catalog  map[string]string
	}{{spec.EndToEnd, endToEndUnits}, {spec.PerLayer, perLayerUnits}} {
		if len(c.declared) != len(c.catalog) {
			t.Errorf("BENCHMARK.json declares %d metrics, catalog has %d", len(c.declared), len(c.catalog))
		}
		for _, e := range c.declared {
			if unit, ok := c.catalog[e.Name]; !ok || unit != e.Unit {
				t.Errorf("metric %s (%s): catalog unit %q", e.Name, e.Unit, unit)
			}
		}
	}
}

func TestCheckWorkersRefusesMoreThanNproc(t *testing.T) {
	if err := checkWorkers(2, 1); err == nil {
		t.Error("2 workers on 1 core: want refusal")
	}
	if err := checkWorkers(2, 2); err != nil {
		t.Errorf("2 workers on 2 cores: %v", err)
	}
}

func TestTailOf(t *testing.T) {
	few := []float64{1, 2, 3, 4, 5}
	if ms, pct, beyond := tailOf(few); ms != 5 || pct != 100 || beyond != 0 {
		t.Errorf("5 samples: got %v p%v beyond %d, want the maximum", ms, pct, beyond)
	}
	var many []float64
	for i := 1; i <= 100; i++ {
		many = append(many, float64(i))
	}
	if ms, pct, beyond := tailOf(many); ms != 90 || pct != 90 || beyond != 10 {
		t.Errorf("100 samples: got %v p%v beyond %d, want 90 p90 beyond 10", ms, pct, beyond)
	}
}
