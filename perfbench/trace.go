package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one pipeline build or one
// server phase share a trace id; Parent is 0 for a root span.
type span struct {
	Name   string        `json:"name"`
	Trace  int           `json:"trace"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per boundary. It is used
// from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// start opens a span and returns its id (0 when tracing is off).
func (t *tracer) start(trace, parent int, name string) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, Start: time.Since(t.t0)})
	return id
}

// end closes the span opened by start.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
}

// record adds a span whose start and end were taken elsewhere, such as
// on another goroutine.
func (t *tracer) record(trace int, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Name: name, Trace: trace, ID: len(t.spans) + 1, Start: start.Sub(t.t0), End: end.Sub(t.t0)})
}

// selfTimes returns, per span name, the self time of every span with
// that name: its duration minus the part its children cover. Children
// of one parent never overlap here, because the benchmark calls layers
// one after another.
func (t *tracer) selfTimes() map[string][]time.Duration {
	child := make(map[int]time.Duration)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.End-s.Start-child[s.ID])
	}
	return out
}

// medianSelfMs is the median self time of the named span, in ms, or 0
// when no span has that name.
func (t *tracer) medianSelfMs(name string) float64 {
	var vals []float64
	for _, d := range t.selfTimes()[name] {
		vals = append(vals, ms(d))
	}
	return median(vals)
}

// medianMs is the median duration of the named span, children included.
func (t *tracer) medianMs(name string) float64 {
	var vals []float64
	for _, s := range t.spans {
		if s.Name == name {
			vals = append(vals, ms(s.End-s.Start))
		}
	}
	return median(vals)
}

// write stores the spans as JSON, in the order they started.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
