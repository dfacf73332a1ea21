package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (spans inside the program are a later change).
// Spans of one operation share Op; Parent is the enclosing span's ID,
// 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder was created
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing: the untraced side of trace.overhead_frac runs the
// same code with a nil recorder.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID (0 when not recording).
func (r *recorder) begin(class, name string, op, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Class: class, Name: name, Start: now})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// write dumps every span as one JSON array and returns how many.
func (r *recorder) write(path string) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		closeErr := f.Close()
		_ = closeErr // the encode error is the one to report
		return 0, err
	}
	return len(r.spans), f.Close()
}
