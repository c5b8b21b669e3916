package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call recorded by a traced run: a workload span holds
// operation spans, which hold stage spans around calls into one layer.
// Parent is -1 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer,omitempty"`
	Start  time.Duration `json:"start_ns"`
	Wall   time.Duration `json:"wall_ns"`
	Allocs uint64        `json:"allocs"`
	Bytes  uint64        `json:"bytes"`

	bytes0, allocs0 uint64
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only; allocation counts are process-wide, so a span around a
// call that fans out to worker goroutines still sees their allocations.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id. A nil tracer
// records nothing.
func (t *tracer) begin(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	b, o := heapAllocs()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Layer: layer,
		Start: time.Since(t.t0), bytes0: b, allocs0: o,
	})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	b, o := heapAllocs()
	s := &t.spans[id]
	s.Wall = now - s.Start
	s.Bytes = b - s.bytes0
	s.Allocs = o - s.allocs0
}

// stageSum totals the wall time and allocated bytes of the spans under
// root (inclusive) that carry the given name.
func (t *tracer) stageSum(root int, name string) (time.Duration, uint64) {
	var wall time.Duration
	var bytes uint64
	for i := root; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.Name == name && t.under(i, root) {
			wall += s.Wall
			bytes += s.Bytes
		}
	}
	return wall, bytes
}

// layerBytes totals the allocated bytes of the stage spans of each layer
// under root.
func (t *tracer) layerBytes(root int) map[string]uint64 {
	out := make(map[string]uint64)
	for i := root; i < len(t.spans); i++ {
		if s := t.spans[i]; s.Layer != "" && t.under(i, root) {
			out[s.Layer] += s.Bytes
		}
	}
	return out
}

// under reports whether span i is root or one of its descendants.
func (t *tracer) under(i, root int) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// summarize adds one line per span name to the report: count, total wall,
// self time (wall not covered by child spans) and allocated KiB.
func (t *tracer) summarize(r *report) {
	type agg struct {
		n          int
		wall, self time.Duration
		bytes      uint64
	}
	childWall := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childWall[s.Parent] += s.Wall
		}
	}
	byName := make(map[string]*agg)
	var names []string
	for i, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.wall += s.Wall
		a.self += s.Wall - childWall[i]
		a.bytes += s.Bytes
	}
	sort.Strings(names)
	r.note("%-28s %7s %12s %12s %12s", "span", "count", "wall_ms", "self_ms", "alloc_KiB")
	for _, n := range names {
		a := byName[n]
		r.note("%-28s %7d %12.3f %12.3f %12.1f", n, a.n, ms(a.wall), ms(a.self), float64(a.bytes)/1024)
	}
}

// dump writes every span as one JSON line to dir/spans-<workload>-seed<n>.jsonl.
func (t *tracer) dump(o options) (string, error) {
	dir := o.scratch
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finish folds the traced passes into the report, adds the tracing
// overhead (traced minus untraced wall per pass) and the span summary, and
// writes the spans out. per names what one pass is.
func (t *tracer) finish(o options, r *report, passes []passValues, plain, traced []float64, per string) error {
	foldPasses(r, passes)
	overhead := median(traced) - median(plain)
	r.set("bench.trace_overhead_ms", overhead)
	r.note("tracing overhead: %.3f ms per %s (traced p50 %.3f ms, untraced p50 %.3f ms, n=%d)",
		overhead, per, median(traced), median(plain), len(traced))
	t.summarize(r)
	path, err := t.dump(o)
	if err != nil {
		return err
	}
	r.note("spans: %s", path)
	return nil
}
