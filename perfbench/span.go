package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The traced pass records spans from the benchmark's own files around each
// call into a layer: name, start, end, the span that caused it, and the
// request it belongs to. Spans stay in memory and are written out when the
// run ends. The program itself is not instrumented, so a "child" span is
// the layer below measured on the same input right after its parent, and a
// layer's self time is its span minus those children.

// spanID identifies a recorded span; 0 means none.
type spanID int32

// span is one recorded interval.
type span struct {
	Name    string `json:"name"`
	ID      spanID `json:"id"`
	Parent  spanID `json:"parent,omitempty"`
	Request int32  `json:"request"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer holds one run's spans.
type tracer struct {
	epoch    time.Time
	spans    []span
	requests int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newRequest returns a fresh request id shared by the spans of one request.
func (t *tracer) newRequest() int32 {
	t.requests++
	return t.requests
}

// begin opens a span.
func (t *tracer) begin(name string, parent spanID, request int32) spanID {
	t.spans = append(t.spans, span{
		Name: name, ID: spanID(len(t.spans) + 1), Parent: parent, Request: request,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return spanID(len(t.spans))
}

// end closes a span.
func (t *tracer) end(id spanID) {
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}

// timed records fn as one span and returns it.
func (t *tracer) timed(name string, parent spanID, request int32, fn func()) spanID {
	id := t.begin(name, parent, request)
	fn()
	t.end(id)
	return id
}

// adopt records spans measured in a child process as children of the span
// that ran it, shifted to start where it started.
func (t *tracer) adopt(parent spanID, request int32, spans []span) {
	base := t.get(parent).StartNs
	for _, s := range spans {
		t.spans = append(t.spans, span{
			Name: s.Name, ID: spanID(len(t.spans) + 1), Parent: parent, Request: request,
			StartNs: base + s.StartNs, EndNs: base + s.EndNs,
		})
	}
}

// get returns a recorded span.
func (t *tracer) get(id spanID) span { return t.spans[id-1] }

// self is a span's duration minus its direct children's. Children are
// recorded after their parent and before the next root span.
func (t *tracer) self(id spanID) time.Duration {
	d := t.get(id).dur()
	for _, s := range t.spans[id:] {
		if s.Parent == 0 {
			break
		}
		if s.Parent == id {
			d -= s.dur()
		}
	}
	return d
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// write stores the spans as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
