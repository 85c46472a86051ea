package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one job share Job;
// Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written once, when the run
// ends. The spans are recorded by the benchmark around its calls into
// each layer, never inside the program.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name, attr string, parent int32, job int) int32 {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Attr: attr, Start: now})
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int32) time.Duration {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = now
	return s.dur()
}

// record opens a span, runs f and closes it.
func (t *tracer) record(name, attr string, parent int32, job int, f func()) time.Duration {
	id := t.begin(name, attr, parent, job)
	f()
	return t.end(id)
}

// durations returns, in milliseconds, the durations of the closed spans
// that keep accepts.
func (t *tracer) durations(keep func(s span) bool) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.End != 0 && keep(s) {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// report prints, per span name, the count, the total and the median
// duration and the total self time.
func (t *tracer) report(w io.Writer) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type agg struct {
		durs        []float64
		total, self time.Duration
	}
	byName := map[string]*agg{}
	var names []string
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.durs = append(a.durs, float64(s.dur())/1e6)
		a.total += s.dur()
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %7s %12s %12s %12s\n", "span", "count", "total_ms", "self_ms", "median_ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "%-24s %7d %12.3f %12.3f %12.4f\n", n, len(a.durs),
			float64(a.total)/1e6, float64(a.self)/1e6, median(a.durs))
	}
}

// write stores every span as one JSON document at path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
