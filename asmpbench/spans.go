package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"asmp/internal/trace"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around its calls into the program. Spans of one
// request share the request's ID in Attr.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Name    string  `json:"name"`
	Attr    string  `json:"attr,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
}

// recorder keeps spans in memory until the run ends. A disabled
// recorder (untraced runs) records nothing and costs a branch.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: now()} }

// start opens a span and returns its ID (0 when disabled).
func (r *recorder) start(name string, parent int, attr string) int {
	if !r.on {
		return 0
	}
	at := float64(now().Sub(r.t0)) / 1e3
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Attr: attr, StartUs: at})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if !r.on || id == 0 {
		return
	}
	at := float64(now().Sub(r.t0)) / 1e3
	r.mu.Lock()
	r.spans[id-1].EndUs = at
	r.mu.Unlock()
}

// add records an already-measured span.
func (r *recorder) add(name string, parent int, attr string, start, end time.Time) {
	if !r.on {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Attr: attr,
		StartUs: float64(start.Sub(r.t0)) / 1e3, EndUs: float64(end.Sub(r.t0)) / 1e3})
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write emits every span as one JSON line, in ID order.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

// eventRecorder is the traced run's trace.Tracer: it counts scheduler
// events and keeps them so the digest replay can refold them.
type eventRecorder struct {
	events []trace.Event
}

func (e *eventRecorder) Record(ev trace.Event) { e.events = append(e.events, ev) }
