package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
)

// span is one timed call from the benchmark into the program. Spans live in
// memory and are written once, when the run ends.
type span struct {
	name       string
	start, end float64 // now() readings, in seconds
	parent     int     // index of the enclosing span, -1 at the root
	op         int     // op the span belongs to (pass-local index)
	tid        int     // caller: advisor client number, else 0
	// allocs is the heap allocations made during the span, read from
	// runtime.MemStats at its boundaries; -1 when not read.
	allocs int64
	args   map[string]any
}

// dur is the span's duration in seconds.
func (s span) dur() float64 { return s.end - s.start }

// tracer records spans. A nil *tracer records nothing, so workload code
// calls it unconditionally.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent, tid int) int {
	if t == nil {
		return -1
	}
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: at, end: at, parent: parent, op: op, tid: tid, allocs: -1})
	return len(t.spans) - 1
}

// end closes span id and attaches args (may be nil).
func (t *tracer) end(id int, args map[string]any) {
	if t == nil || id < 0 {
		return
	}
	at := now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = at
	t.spans[id].args = args
}

// add records an already-timed span.
func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
}

// allocCall runs fn inside a span, reading the heap allocation count at
// the span's boundaries.
func (t *tracer) allocCall(name string, op, parent int, fn func() map[string]any) {
	if t == nil {
		fn()
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.begin(name, op, parent, 0)
	args := fn()
	t.end(id, args)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].allocs = int64(after.Mallocs - before.Mallocs)
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// named returns the spans called name, in start order.
func (t *tracer) named(name string) []span {
	var out []span
	for _, s := range t.all() {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, s := range spans {
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// printSelfTimes writes total and self time per span name.
func (t *tracer) printSelfTimes(w io.Writer) {
	type agg struct {
		n           int
		total, self float64
	}
	spans := t.all()
	self := selfTimes(spans)
	by := map[string]*agg{}
	for i, s := range spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.dur()
		a.self += self[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", n, a.n, a.total*1e3, a.self*1e3)
	}
}

// write saves the spans as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto) and returns the file's path.
func (t *tracer) write(workload string, seed int64) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	spans := t.all()
	self := selfTimes(spans)
	events := make([]event, len(spans))
	for i, s := range spans {
		args := map[string]any{"op": s.op, "parent": s.parent, "self_us": self[i] * 1e6}
		if s.allocs >= 0 {
			args["allocs"] = s.allocs
		}
		for k, v := range s.args {
			args[k] = v
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: s.start * 1e6, Dur: s.dur() * 1e6,
			Pid: 1, Tid: s.tid, Args: args}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
