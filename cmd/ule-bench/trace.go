package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark from
// outside that layer. Start and End are nanoseconds since the tracer's
// epoch; Parent is the index of the span that caused it (-1 for a root);
// spans of one operation (one set-up, one measured iteration) share Op.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use (serve-mix records from two client goroutines, the sweep
// emitter wrapper from the harness consumer goroutine). While on is
// false begin returns noSpan and records nothing, which is how the
// untraced pass — and the untraced half of a traced pass — run the same
// code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []span
}

const noSpan = -1

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent, op int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return noSpan
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id == noSpan {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// layerOf maps a span name to its layer: the text before the first dot
// ("core.RunInto" → "core").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (concurrent clients under one window span), so the covered part
// is the union of the child intervals clipped to the parent.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// selfByLayer sums self time per layer, in nanoseconds.
func selfByLayer(spans []span) map[string]int64 {
	out := map[string]int64{}
	for i, d := range selfTimes(spans) {
		out[layerOf(spans[i].Name)] += d
	}
	return out
}

// msPerOp sums the durations of the spans called name per operation id
// and returns the sums in milliseconds: one value per set-up, or per
// iteration, that called into name.
func msPerOp(spans []span, name string) []float64 {
	byOp := map[int]int64{}
	for _, s := range spans {
		if s.Name == name {
			byOp[s.Op] += s.End - s.Start
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, ns := range byOp {
		out = append(out, float64(ns)/1e6)
	}
	return out
}

// writeFile dumps the spans as one JSON array (the -trace-out file).
func (t *tracer) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
