package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/telemetry"
)

// section is one timed section: passes run back to back until the
// requested time has elapsed (or the reference pool is used up), with the
// process-wide allocation and GC deltas across it.
type section struct {
	passes   []passResult
	mallocs  uint64
	bytes    uint64
	gcCPU    float64
	totalCPU float64
	gcCycles uint64
}

// runSection sets w up, runs passes until seconds have elapsed, and closes
// it. Set-up and close stay outside the timed interval.
func runSection(w workload, seconds float64, tr *tracer) (section, error) {
	if err := w.setup(); err != nil {
		return section{}, err
	}
	defer w.close()
	var sec section
	var before, after runtime.MemStats
	gcBefore := readGC()
	runtime.ReadMemStats(&before)
	start := now()
	for p := 0; p < w.maxPasses(); p++ {
		// Every pass starts from the same heap: the garbage of the one
		// before is collected and returned to the kernel, so neither its
		// collection debt nor its resident pages land in this pass.
		debug.FreeOSMemory()
		resetPeakRSS()
		r := w.pass(p, tr)
		r.peakRSSMB = peakRSSMB()
		sec.passes = append(sec.passes, r)
		if now()-start >= seconds {
			break
		}
	}
	runtime.ReadMemStats(&after)
	gcAfter := readGC()
	sec.mallocs = after.Mallocs - before.Mallocs
	sec.bytes = after.TotalAlloc - before.TotalAlloc
	sec.gcCPU = gcAfter.gcCPU - gcBefore.gcCPU
	sec.totalCPU = gcAfter.totalCPU - gcBefore.totalCPU
	sec.gcCycles = gcAfter.cycles - gcBefore.cycles
	return sec, nil
}

func (s section) ops() int {
	n := 0
	for _, p := range s.passes {
		n += len(p.opsMS)
	}
	return n
}

func (s section) failed() int {
	n := 0
	for _, p := range s.passes {
		n += p.failed
	}
	return n
}

// perPassMedian is the median over passes of f applied to each pass.
// Every pass does the same mix of ops, so the per-pass figures estimate
// the same quantity, and their median shrugs off a pass the machine
// slowed where a figure pooled over the whole section would not.
func (s section) perPassMedian(f func(passResult) float64) float64 {
	xs := make([]float64, len(s.passes))
	for i, p := range s.passes {
		xs[i] = f(p)
	}
	return median(xs)
}

func (s section) medianPassS() float64 {
	return s.perPassMedian(func(p passResult) float64 { return p.wallS })
}

// tail is the median over passes of each pass's tail latency (tailOf),
// with that percentile and the samples beyond it in one pass.
func (s section) tail() (ms, pct float64, beyond int) {
	ms = s.perPassMedian(func(p passResult) float64 {
		sorted := append([]float64(nil), p.opsMS...)
		sort.Float64s(sorted)
		var t float64
		t, pct, beyond = tailOf(sorted)
		return t
	})
	return ms, pct, beyond
}

// tailOf returns the latency at the highest percentile that still has at
// least ten samples beyond it, that percentile, and the number of samples
// beyond it. With ten samples or fewer no such percentile exists and the
// maximum is returned as p100.
func tailOf(sorted []float64) (ms, pct float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= 10 {
		return sorted[n-1], 100, 0
	}
	i := n - 11
	return sorted[i], 100 * float64(i+1) / float64(n), n - 1 - i
}

// endToEnd derives the end-to-end metrics of an untraced section.
func endToEnd(s section, setupS float64) map[string]metric {
	tailMS, _, _ := s.tail()
	ops := float64(s.ops())
	values := map[string]float64{
		"setup_s": setupS,
		"wall_s":  s.medianPassS(),
		"ops_per_s": s.perPassMedian(func(p passResult) float64 {
			return float64(len(p.opsMS)) / p.wallS
		}),
		"op_p50_ms":       s.perPassMedian(func(p passResult) float64 { return median(p.opsMS) }),
		"op_tail_ms":      tailMS,
		"allocs_per_op":   float64(s.mallocs) / ops,
		"alloc_mb_per_op": float64(s.bytes) / ops / 1e6,
		"peak_rss_mb":     s.perPassMedian(func(p passResult) float64 { return p.peakRSSMB }),
	}
	out := make(map[string]metric, len(values))
	for name, v := range values {
		out[name] = metric{v, endToEndUnits[name]}
	}
	return out
}

// gcLayers is the runtime's share of a section: GC CPU over all CPU, and
// collections per pass.
func (s section) gcLayers() map[string]float64 {
	frac := 0.0
	if s.totalCPU > 0 {
		frac = s.gcCPU / s.totalCPU
	}
	return map[string]float64{
		"runtime.gc_cpu_frac": frac,
		"runtime.gc_cycles":   s.perPass(float64(s.gcCycles)),
	}
}

// virtualMismatch compares the virtual counts of the passes both sections
// ran; it returns "" when they agree.
func virtualMismatch(a, b section) string {
	n := min(len(a.passes), len(b.passes))
	for p := 0; p < n; p++ {
		va, vb := a.passes[p].virtual, b.passes[p].virtual
		if len(va) != len(vb) {
			return fmt.Sprintf("pass %d: %d vs %d counts", p, len(va), len(vb))
		}
		for k, x := range va {
			if y, ok := vb[k]; !ok || x != y {
				return fmt.Sprintf("pass %d: %s = %v untraced, %v traced", p, k, x, vb[k])
			}
		}
	}
	return ""
}

// sumVirtual adds the virtual counts of every pass of a section.
func (s section) sumVirtual() map[string]float64 {
	out := map[string]float64{}
	for _, p := range s.passes {
		for k, v := range p.virtual {
			out[k] += v
		}
	}
	return out
}

// perPass averages a summed count over the section's passes.
func (s section) perPass(total float64) float64 {
	if len(s.passes) == 0 {
		return 0
	}
	return total / float64(len(s.passes))
}

type gcSample struct {
	gcCPU, totalCPU float64
	cycles          uint64
}

func readGC() gcSample {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(samples)
	var g gcSample
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		g.gcCPU = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindFloat64 {
		g.totalCPU = samples[1].Value.Float64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		g.cycles = samples[2].Value.Uint64()
	}
	return g
}

// resetPeakRSS restarts the kernel's peak resident set (VmHWM) from the
// current resident set, so the next reading is the peak of one pass. Where
// the kernel refuses, readings stay process-wide peaks.
func resetPeakRSS() {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		rssResetFailed.Do(func() { fmt.Fprintln(os.Stderr, "peak RSS is process-wide:", err) })
	}
}

var rssResetFailed sync.Once

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clock is the benchmark's only wall-clock source: host timing goes
// through telemetry.Stopwatch, as everywhere else in the repository.
var clock = telemetry.StartStopwatch()

// now is the wall time in seconds since the process started its clock.
func now() float64 { return clock.Seconds() }

// msSince is the wall time in milliseconds since start, a now() reading.
func msSince(start float64) float64 { return (now() - start) * 1e3 }
