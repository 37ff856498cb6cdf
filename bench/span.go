package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one
// operation (a replay pass, a served run) share Run; Parent is the id
// of the span that caused this one (0 = root). Per-call wrappers on
// million-call paths do not emit a span per call: they aggregate and
// emit one span per pass whose Count is the number of calls and whose
// duration is their summed time.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Run     string `json:"run"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Count   int64  `json:"count,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so the untraced drivers share the traced
// drivers' code at the cost of a nil check.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil recorder).
func (r *recorder) add(name, run string, parent int, start time.Time, d time.Duration, count int64) int {
	if r == nil {
		return 0
	}
	s0 := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: run, Name: name,
		StartNS: s0, EndNS: s0 + d.Nanoseconds(), Count: count})
	return id
}

// open reserves an id for a span whose children finish before it does;
// close fills in its end.
func (r *recorder) open(name, run string, parent int, start time.Time) int {
	return r.add(name, run, parent, start, 0, 0)
}

func (r *recorder) close(id int, end time.Time) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id-1].EndNS = end.Sub(r.t0).Nanoseconds()
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes gives every span's self time: its duration minus the part
// of its interval that its child spans cover (overlapping children are
// counted once, and a child is clipped to its parent).
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}

// writeSpans writes one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// callAgg accumulates count and time of a wrapped call that runs too
// often for one span each. Not safe for concurrent use: the engine
// workloads are single-threaded by design.
type callAgg struct {
	n int64
	d time.Duration
}

func (a *callAgg) observe(t0 time.Time) {
	a.n++
	a.d += time.Since(t0)
}
