package main

import (
	"cmp"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"time"

	"nvscavenger/internal/runner"
)

// span is one timed call from the benchmark into a layer.  Spans of one
// timed unit share a trace id; Parent is 0 for a unit's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Trace  int64  `json:"trace"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the recorder's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the span's time not covered by its children, filled in
	// when the spans are written out.
	SelfNS int64 `json:"self_ns"`
}

// spans records spans in memory; they are written out once the run ends.
// A nil *spans is the untraced mode: every method is a no-op, so workload
// code calls it unconditionally.
type spans struct {
	t0 time.Time

	mu     sync.Mutex
	list   []span
	traces int64
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// begin opens a span and returns its id (0 when untraced).
func (s *spans) begin(name string, parent, trace int64) int64 {
	if s == nil {
		return 0
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, span{ID: id, Parent: parent, Trace: trace, Name: name, StartNS: now, EndNS: -1})
	return id
}

// end closes the span opened as id.
func (s *spans) end(id int64) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.t0).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list[id-1].EndNS = now
}

// add records a completed span whose bounds were observed elsewhere (the
// runner's progress events) and returns its id.
func (s *spans) add(name string, parent, trace int64, start, end time.Time) int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	id := int64(len(s.list) + 1)
	s.list = append(s.list, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: start.Sub(s.t0).Nanoseconds(), EndNS: end.Sub(s.t0).Nanoseconds()})
	return id
}

// newTrace returns a fresh trace id for one timed unit.
func (s *spans) newTrace() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.traces++
	return s.traces
}

// duration returns the length of the span opened as id.
func (s *spans) duration(id int64) time.Duration {
	if s == nil || id == 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sp := s.list[id-1]
	return time.Duration(sp.EndNS - sp.StartNS)
}

// snapshot returns a copy of the recorded spans with self times filled in.
func (s *spans) snapshot() []span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	list := slices.Clone(s.list)
	s.mu.Unlock()
	return withSelfTimes(list)
}

// withSelfTimes sets each span's SelfNS: its duration minus the part of its
// interval that the union of its children's intervals covers.  Children of
// one parent may overlap (parallel runs under one exhibit), so the union is
// taken, not the sum.
func withSelfTimes(list []span) []span {
	children := map[int64][]span{}
	for _, sp := range list {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for i, sp := range list {
		kids := children[sp.ID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.StartNS, b.StartNS) })
		covered, reach := int64(0), sp.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, sp.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		list[i].SelfNS = sp.EndNS - sp.StartNS - covered
	}
	return list
}

// writeSpans writes the recorded spans as JSON to path.
func writeSpans(path string, list []span) error {
	data, err := json.MarshalIndent(struct {
		Spans []span `json:"spans"`
	}{list}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runnerProbe observes the run engine's progress events from outside: it
// counts executed runs, cache hits and simulated references, and, when
// traced, records one span per start/done pair under the caller's current
// span.  Events arrive from worker goroutines, or from a job's event
// stream for the served workload.
type runnerProbe struct {
	sp     *spans
	trace  int64
	parent func() int64

	mu      sync.Mutex
	starts  map[string]time.Time
	refs    uint64
	started int
	cached  int
	busy    time.Duration
}

func newRunnerProbe(sp *spans, trace int64, parent func() int64) *runnerProbe {
	return &runnerProbe{sp: sp, trace: trace, parent: parent, starts: map[string]time.Time{}}
}

// event is the session progress callback.
func (r *runnerProbe) event(ev runner.Event) {
	r.observe(ev.Kind.String(), ev.Key.String(), time.Now(), ev.Wall, ev.Refs)
}

// record consumes one event of a served job's NDJSON stream.
func (r *runnerProbe) record(rec runner.EventRecord) {
	r.observe(rec.Kind, rec.Key, rec.Time, time.Duration(rec.WallSeconds*float64(time.Second)), rec.Refs)
}

func (r *runnerProbe) observe(kind, key string, at time.Time, wall time.Duration, refs uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch kind {
	case runner.EventStart.String():
		r.started++
		r.starts[key] = at
	case runner.EventCached.String():
		r.cached++
	case runner.EventDone.String(), runner.EventError.String():
		r.refs += refs
		r.busy += wall
		if start, ok := r.starts[key]; ok && r.sp != nil {
			r.sp.add("runner.run "+key, r.parent(), r.trace, start, at)
		}
		delete(r.starts, key)
	}
}

// totals returns the probe's counts so far.
func (r *runnerProbe) totals() (refs uint64, started, cached int, busy time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.refs, r.started, r.cached, r.busy
}
