package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Request; Parent is the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Request int64  `json:"request"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records spans in memory for one goroutine (no locking: each
// client owns its tracer). A nil *tracer records nothing, which is how
// the untraced phases run the same code.
type tracer struct {
	epoch time.Time
	// base keeps span ids unique across the tracers of one run (slot in
	// the high bits), so their spans can share one file.
	base  int64
	spans []span
}

func newTracer(epoch time.Time, slot int) *tracer {
	return &tracer{epoch: epoch, base: int64(slot) << 32}
}

// begin opens a span and returns its index in this tracer (-1 when off).
func (t *tracer) begin(request, parent int64) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID:      t.base + int64(len(t.spans)) + 1,
		Request: request,
		Parent:  parent,
		StartNs: int64(time.Since(t.epoch)),
	})
	return len(t.spans) - 1
}

// end closes span i under its final name (a name may depend on the
// outcome, e.g. cache hit or miss) and returns its duration.
func (t *tracer) end(i int, name string) time.Duration {
	if t == nil {
		return 0
	}
	s := &t.spans[i]
	s.Name = name
	s.EndNs = int64(time.Since(t.epoch))
	return time.Duration(s.EndNs - s.StartNs)
}

// id reports the span id behind index i (the Parent of its children);
// a negative index stands for "no parent".
func (t *tracer) id(i int) int64 {
	if t == nil || i < 0 {
		return 0
	}
	return t.spans[i].ID
}

// durations groups the recorded span lengths by name.
func (t *tracer) durations() map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	for i := range t.spans {
		s := &t.spans[i]
		out[s.Name] = append(out[s.Name], time.Duration(s.EndNs-s.StartNs))
	}
	return out
}

// writeTrace writes every span as one JSON object per line.
func writeTrace(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
