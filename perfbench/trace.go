package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Spans live in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for an op root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer records spans for one goroutine; merge tracers of concurrent
// clients after they finish.
type tracer struct {
	t0    time.Time
	spans []span
	// prefix is prepended to the names of the spans begun while it is set.
	prefix string
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0} }

// begin opens a span and returns its id.
func (tr *tracer) begin(name string, op, parent int) int {
	tr.spans = append(tr.spans, span{Name: tr.prefix + name, Op: op, Parent: parent, Start: time.Since(tr.t0).Nanoseconds()})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) { tr.spans[id].End = time.Since(tr.t0).Nanoseconds() }

// do records fn as a span.
func (tr *tracer) do(name string, op, parent int, fn func()) {
	id := tr.begin(name, op, parent)
	fn()
	tr.end(id)
}

// merge appends other's spans, rebasing their parent ids.
func (tr *tracer) merge(other *tracer) {
	base := len(tr.spans)
	for _, s := range other.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		tr.spans = append(tr.spans, s)
	}
}

// durations returns the durations in ms of every span with this name.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// layerReplayMS sums the durations of the top-level spans (the children
// of an op root) of each layer, keyed by the span name up to its last
// dot ("kernel" for kernel.resolve, "probe.kernel" for its probe), and
// counts the op roots ("op", "probe.op").
func (tr *tracer) layerReplayMS() (ms map[string]float64, roots map[string]int) {
	ms, roots = map[string]float64{}, map[string]int{}
	for _, s := range tr.spans {
		if s.Parent < 0 {
			roots[s.Name]++
			continue
		}
		if p := tr.spans[s.Parent]; p.Parent < 0 {
			ms[s.Name[:strings.LastIndexByte(s.Name, '.')]] += s.ms()
		}
	}
	return ms, roots
}

// addLayerMetrics sets each layer's replay time: the time of its
// top-level calls per op, or per probe when the workload's ops never
// entered the layer. The calls of one layer replay work that the layer
// above also does (a lahar TopK contains a core drain, which contains a
// ranked drain), so the figures nest rather than add up.
func (tr *tracer) addLayerMetrics(m layerMetrics) {
	ms, roots := tr.layerReplayMS()
	for _, layer := range []string{"lahar", "core", "ranked", "kernel", "markov"} {
		v, n := ms[layer], roots["op"]
		if _, ok := ms[layer]; !ok {
			v, n = ms["probe."+layer], roots["probe.op"]
		}
		m.set(layer+".replay_ms_per_op", v/float64(max(n, 1)))
	}
}

// write stores the spans as JSON lines under dir.
func (tr *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
