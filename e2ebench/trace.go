package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made, or one phase grafted from
// a build's own trace. Parent indexes the enclosing span (-1 for an
// operation's root); Op numbers the operation (edit, noop, serve
// round) the span belongs to.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	op    int
	kind  map[int]string // op -> "edit", "noop", "serve"
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), kind: map[int]string{}}
}

// beginOp starts a new operation and returns its root span.
func (t *tracer) beginOp(kind string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.op++
	t.kind[t.op] = kind
	t.mu.Unlock()
	return t.begin(kind, -1)
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	return t.add(name, time.Now(), time.Time{}, parent)
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// setEnd closes span i at a known instant.
func (t *tracer) setEnd(i int, end time.Time) {
	if t == nil || i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].End = end.Sub(t.t0).Nanoseconds()
	t.mu.Unlock()
}

// add records a span with known bounds (a zero end leaves it open).
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), Parent: parent, Op: t.op}
	if !end.IsZero() {
		s.End = end.Sub(t.t0).Nanoseconds()
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTimes returns, per operation kind and span name, the self time
// in milliseconds of every operation of that kind: a span's duration
// minus the part its children cover, summed over same-named spans of
// one operation.
func (t *tracer) selfTimes() map[string]map[string][]float64 {
	children := map[int][]int{}
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	perOp := map[int]map[string]float64{}
	for i, s := range t.spans {
		self := float64(s.End-s.Start) - covered(t.spans, children[i], s)
		if perOp[s.Op] == nil {
			perOp[s.Op] = map[string]float64{}
		}
		perOp[s.Op][s.Name] += self / 1e6
	}
	out := map[string]map[string][]float64{}
	ops := make([]int, 0, len(perOp))
	for op := range perOp {
		ops = append(ops, op)
	}
	sort.Ints(ops)
	for _, op := range ops {
		kind := t.kind[op]
		if out[kind] == nil {
			out[kind] = map[string][]float64{}
		}
		for name, ms := range perOp[op] {
			out[kind][name] = append(out[kind][name], ms)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(spans []span, kids []int, parent span) float64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return float64(total)
}

// traceFile is what a traced run writes at exit.
type traceFile struct {
	Workload string                        `json:"workload"`
	Seed     int64                         `json:"seed"`
	Spans    []span                        `json:"spans"`
	SelfMs   map[string]map[string]float64 `json:"self_ms_p50"`
	Overhead map[string]float64            `json:"tracing_overhead"`
}

func (t *tracer) write(path string, tf traceFile) error {
	tf.Spans = t.spans
	tf.SelfMs = map[string]map[string]float64{}
	for kind, byName := range t.selfTimes() {
		tf.SelfMs[kind] = map[string]float64{}
		for name, v := range byName {
			tf.SelfMs[kind][name] = median(v)
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
