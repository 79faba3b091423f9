package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of a call into the program. Spans of one operation share
// Op; Parent is the id of the enclosing span, or -1 for a root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workload code has one path.
// Methods are safe for concurrent use (grid points run in parallel).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(op int64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(op int64, parent int, name string, fn func() error) error {
	id := t.begin(op, parent, name)
	err := fn()
	t.end(id)
	return err
}

// named returns the closed spans called name, in start order.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of the spans called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, ms(s.dur()))
	}
	return out
}

// selfTimes returns each closed span's self time: its duration minus the
// part of its interval covered by the union of its children.
func (t *tracer) selfTimes() map[int]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, hi int64
	hi = parent.Start
	for _, k := range kids {
		lo, end := max(k.Start, hi), min(k.End, parent.End)
		if end > lo {
			total += end - lo
			hi = end
		}
	}
	return time.Duration(total)
}

// write stores the provenance header and every span, with its self time, as
// JSON lines in path.
func (t *tracer) write(path string, header any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := t.selfTimes()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(struct {
			span
			SelfNS int64 `json:"self_ns"`
		}{s, int64(self[s.ID])}); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
