package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans of one request share Req; Parent is the ID of the span that caused
// this one (0 for a root).
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced phases pass nil and pay only a nil check.
type Tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// openSpan is a span that has started but not yet ended.
type openSpan struct {
	id, parent, req int64
	name            string
	start           time.Time
}

// begin opens a span; the zero openSpan comes back from a nil tracer.
func (t *Tracer) begin(name string, parent, req int64) openSpan {
	if t == nil {
		return openSpan{}
	}
	return openSpan{id: t.ids.Add(1), parent: parent, req: req, name: name, start: time.Now()}
}

// end closes a span opened by begin.
func (t *Tracer) end(s openSpan) {
	if t == nil {
		return
	}
	t.add(Span{ID: s.id, Parent: s.parent, Req: s.req, Name: s.name,
		Start: s.start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds()})
}

// record adds a finished span with explicit bounds: one batched call into
// a layer is recorded once per request it served.
func (t *Tracer) record(name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.add(Span{ID: t.ids.Add(1), Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

func (t *Tracer) add(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo,hi) the union of ivs covers.
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// selfTimes maps each span ID to its duration minus the part of it that its
// children cover.
func selfTimes(spans []Span) map[int64]int64 {
	children := map[int64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return self
}

// layerTimes summarises spans by name: call count and median wall and
// self time.
type layerTimes struct {
	Name     string  `json:"name"`
	Calls    int     `json:"calls"`
	WallMS   float64 `json:"wall_p50_ms"`
	SelfMS   float64 `json:"self_p50_ms"`
	SelfSumS float64 `json:"self_total_s"`
}

func summarise(spans []Span) map[string]layerTimes {
	self := selfTimes(spans)
	wall := map[string][]float64{}
	selfMS := map[string][]float64{}
	for _, s := range spans {
		wall[s.Name] = append(wall[s.Name], float64(s.End-s.Start)/1e6)
		selfMS[s.Name] = append(selfMS[s.Name], float64(self[s.ID])/1e6)
	}
	out := map[string]layerTimes{}
	for name, w := range wall {
		sum := 0.0
		for _, v := range selfMS[name] {
			sum += v
		}
		out[name] = layerTimes{Name: name, Calls: len(w), WallMS: quantile(w, 0.5),
			SelfMS: quantile(selfMS[name], 0.5), SelfSumS: sum / 1e3}
	}
	return out
}

// writeTrace writes the spans and their per-layer summary under dir.
func writeTrace(dir string, spans []Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	sum := summarise(spans)
	names := make([]string, 0, len(sum))
	for n := range sum {
		names = append(names, n)
	}
	sort.Strings(names)
	rows := make([]layerTimes, 0, len(names))
	for _, n := range names {
		rows = append(rows, sum[n])
	}
	if err := writeJSON(filepath.Join(dir, "spans.json"), spans); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "layers.json"), rows)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
