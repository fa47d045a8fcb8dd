package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans of one
// request or sweep point share a trace id; Parent links a span to the
// call that caused it. Aux spans are measurement helpers off the
// request's blocking path and are left out of self-time accounting.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Trace  int64         `json:"trace"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Bytes  int64         `json:"bytes,omitempty"`
	Aux    bool          `json:"aux,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name's module prefix ("scenario.build" → "scenario").
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced measurement runs.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// id reserves a span id, so a parent can be named before it ends.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// add records a finished span; a zero sp.ID is assigned a fresh one.
func (t *tracer) add(sp span) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if sp.ID == 0 {
		t.next++
		sp.ID = t.next
	}
	t.spans = append(t.spans, sp)
	return sp.ID
}

// at converts a wall time to the tracer's timeline.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch) }

// selfTimes returns each layer's self time summed over all non-aux
// spans: a span's duration minus the part of its interval that its
// children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make(map[int64][]span)
	for _, sp := range t.spans {
		if sp.Parent != 0 && !sp.Aux {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	self := make(map[string]time.Duration)
	for _, sp := range t.spans {
		if sp.Aux {
			continue
		}
		self[sp.layer()] += sp.dur() - covered(sp, children[sp.ID])
	}
	return self
}

// covered returns how much of sp's interval the union of kids covers.
func covered(sp span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, sp.Start), min(k.End, sp.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > end {
			total += x[1] - x[0]
			end = x[1]
			continue
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
