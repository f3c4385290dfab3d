// Package obs is the observability layer threaded through every mapper: trace
// spans, point events, and integer fields describing what each pipeline pass
// did (schedule length, compatibility-graph size, clique search effort,
// learn-from-failure moves, annealing epochs, resilience rungs).
//
// The design goal is that instrumentation is free when nobody is looking. A
// nil *Tracer is the disabled state: every method on it returns immediately,
// spans are plain values, and no allocation happens on any emit path — the
// mappers therefore instrument unconditionally and callers opt in by putting
// a tracer into the context (With/From) or into an Options.Trace field for
// the context-free layers (sched, clique). BenchmarkObsNilSink and
// TestNilTracerZeroAlloc pin the 0 allocs/op contract.
//
// Event taxonomy (the Name field; see DESIGN.md section 8e) — exactly the
// events the code emits, with exactly their fields:
//
//	mii                 MII analysis           fields: mii
//	ii.attempt          one II escalation step fields: ii, rounds, ok
//	pass.schedule       modulo scheduling      fields: length, width, ok
//	pass.precheck       schedule rejected before placement (point) fields: dup or overflow
//	pass.compat         compat-graph build     fields: nodes, edges (ok=0 when the builder cannot be reset)
//	pass.clique         placement search       fields: placed, target
//	pass.learn          learn-from-failure     fields: reschedule (point), or inserts, thins, ok (span)
//	clique.find         generic clique engine  fields: nodes, seeds, pairs, best, target
//	clique.grouped      grouped constructive   fields: groups, rounds, failed, best, folds (pending groups folded), free (pending groups skipped as free)
//	sched.schedule      one scheduler call     fields: ii, length, ok
//	dresc.anneal        one II annealing run   fields: ii, moves, accepts, ok
//	ems.place           one II greedy pass     fields: ii, placements, routes, ok
//	resilient.rung      one ladder rung        fields: rung, ii, ok
//	map.done            end-to-end result      fields: ii, mii, attempts
//	server.request      one /v1/map request    fields: code, ok, cached
//	server.shed         queue-full rejection   fields: n
//	server.panic        recovered handler panic fields: n
//	memo.hit            result served from cache fields: n
//	memo.miss           result computed fresh  fields: n
//	memo.collapse       duplicate collapsed onto an in-flight leader fields: n
//	job.submit          async job acknowledged fields: n
//	job.duplicate       submit deduplicated by idempotency key fields: n
//	job.start           job execution started  fields: n
//	job.done            job reached done       fields: n, attempts, degraded
//	job.fail            job reached failed     fields: n, attempts
//	job.retry           transient failure retried fields: n
//	job.degrade         submit downgraded past the queue watermark fields: n
//	job.recover         non-terminal job re-queued from the WAL fields: n
//	breaker.trip        an engine circuit opened fields: n
//	wal.compact         job WAL folded into a snapshot fields: n
//	wal.compact_error   WAL compaction failed  fields: n
//
// Counter events (the `n` family) carry their increment in the field, so a
// sink totals a counter by summing that field per event name.
//
// Every event carries the engine and kernel labels of the tracer that emitted
// it, a start offset relative to the tracer epoch, and a duration (zero for
// point events). REGIMap labels its events "regimap"; under Explore, scout s
// labels its mii, ii.attempt, pass.*, clique.* and map.done events
// "regimap/scout<s>" while the base search keeps "regimap", so each
// candidate's escalation reads apart from the others. A traced REGIMap
// compile maps its IIs one at a time on the caller's goroutine, where an
// untraced one races the IIs above its second (core.Options.Workers), so one
// compile's spans nest: each pass.* span lies inside its ii.attempt span.
// A traced run therefore also forgoes the race's speed-up, and a measured
// traced/untraced overhead includes it.
package obs

import (
	"sort"
	"sync"
	"time"
)

// maxFields bounds the inline field array of an Event. Spans drop fields
// beyond the bound rather than allocate; no current emitter exceeds it.
const maxFields = 8

// Field is one integer measurement attached to an event.
type Field struct {
	Key string
	Val int64
}

// Event is one trace record. Events are delivered to sinks by pointer for
// speed; a sink that retains an event must copy it.
type Event struct {
	Name    string        // taxonomy name, e.g. "pass.schedule"
	Engine  string        // emitting engine ("regimap", "ems", ...)
	Kernel  string        // kernel being mapped
	Start   time.Duration // offset from the tracer epoch
	Dur     time.Duration // span length (0 for point events)
	NFields int
	Fields  [maxFields]Field
}

// FieldVal returns the named field's value and whether it is present.
func (e *Event) FieldVal(key string) (int64, bool) {
	for i := 0; i < e.NFields; i++ {
		if e.Fields[i].Key == key {
			return e.Fields[i].Val, true
		}
	}
	return 0, false
}

// Sink receives completed events. Implementations must be safe for
// concurrent use: Explore's racing escalations and the parallel experiment
// drivers emit from many goroutines at once.
type Sink interface {
	Emit(e *Event)
}

// Tracer stamps events with shared labels and forwards them to a sink. The
// nil tracer is the disabled state — every method no-ops — so callers never
// branch on "is tracing on" themselves.
type Tracer struct {
	sink   Sink
	epoch  time.Time
	engine string
	kernel string
}

// New returns a tracer emitting to sink (nil sink: a nil, disabled tracer).
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink, epoch: time.Now()}
}

// Enabled reports whether events will be recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Named returns a tracer with the engine and kernel labels set, sharing the
// parent's sink and epoch. Empty strings keep the parent's labels. Named on
// the nil tracer returns nil, preserving the disabled fast path.
func (t *Tracer) Named(engine, kernel string) *Tracer {
	if t == nil {
		return nil
	}
	child := *t
	if engine != "" {
		child.engine = engine
	}
	if kernel != "" {
		child.kernel = kernel
	}
	return &child
}

// Span is an in-flight timed region. The zero Span (from a nil tracer) is
// inert: Field and End on it do nothing and allocate nothing.
type Span struct {
	t     *Tracer
	start time.Time
	ev    Event
}

// Start opens a span. Close it with End (or EndOK); attach measurements with
// Field between the two.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	now := time.Now()
	s := Span{t: t, start: now}
	s.ev.Name = name
	s.ev.Engine = t.engine
	s.ev.Kernel = t.kernel
	s.ev.Start = now.Sub(t.epoch)
	return s
}

// Field attaches one integer measurement. Fields beyond the inline capacity
// are dropped (never allocated); returns the span for chaining.
func (s *Span) Field(key string, val int64) *Span {
	if s.t == nil || s.ev.NFields >= maxFields {
		return s
	}
	s.ev.Fields[s.ev.NFields] = Field{Key: key, Val: val}
	s.ev.NFields++
	return s
}

// FieldBool attaches a 0/1 measurement.
func (s *Span) FieldBool(key string, val bool) *Span {
	v := int64(0)
	if val {
		v = 1
	}
	return s.Field(key, v)
}

// End closes the span and delivers it. The event is copied to a fresh local
// before crossing the sink interface: passing &s.ev would make every Span
// escape to the heap, including on the disabled nil-tracer path.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	ev := s.ev
	ev.Dur = time.Since(s.start)
	s.t.sink.Emit(&ev)
}

// Point emits an instantaneous event with up to three fields — the fixed
// arity keeps the disabled path allocation-free (variadics would escape).
// Unused slots are skipped with an empty key.
func (t *Tracer) Point(name string, k1 string, v1 int64, k2 string, v2 int64, k3 string, v3 int64) {
	if t == nil {
		return
	}
	var e Event
	e.Name = name
	e.Engine = t.engine
	e.Kernel = t.kernel
	e.Start = time.Since(t.epoch)
	for _, f := range [3]Field{{k1, v1}, {k2, v2}, {k3, v3}} {
		if f.Key == "" {
			continue
		}
		e.Fields[e.NFields] = f
		e.NFields++
	}
	t.sink.Emit(&e)
}

// Point1 emits an instantaneous single-field event.
func (t *Tracer) Point1(name, key string, val int64) {
	t.Point(name, key, val, "", 0, "", 0)
}

// MemSink collects events in memory for post-run analysis (the experiments
// harness aggregates per-pass durations from it). Safe for concurrent emit.
type MemSink struct {
	mu     sync.Mutex
	events []Event
}

// Emit appends a copy of the event.
func (m *MemSink) Emit(e *Event) {
	m.mu.Lock()
	m.events = append(m.events, *e)
	m.mu.Unlock()
}

// Events returns a snapshot of everything recorded so far.
func (m *MemSink) Events() []Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Event, len(m.events))
	copy(out, m.events)
	return out
}

// Reset discards all recorded events.
func (m *MemSink) Reset() {
	m.mu.Lock()
	m.events = m.events[:0]
	m.mu.Unlock()
}

// DurByName sums event durations grouped by event name — the per-pass
// phase-time breakdown.
func (m *MemSink) DurByName() map[string]time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]time.Duration{}
	for i := range m.events {
		out[m.events[i].Name] += m.events[i].Dur
	}
	return out
}

// CountByName returns how many events were recorded per event name.
func (m *MemSink) CountByName() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]int64{}
	for i := range m.events {
		out[m.events[i].Name]++
	}
	return out
}

// Tee returns a sink fanning every event out to each non-nil sink, in order.
// It is how one emit stream feeds both a persistent trace (JSONLSink) and a
// live aggregation — the regimapd metrics path. Tee of zero or one
// usable sink returns that sink (or nil) directly, keeping the fan-out cost
// off degenerate configurations.
func Tee(sinks ...Sink) Sink {
	kept := make([]Sink, 0, len(sinks))
	for _, s := range sinks {
		if s != nil {
			kept = append(kept, s)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return teeSink(kept)
}

type teeSink []Sink

func (t teeSink) Emit(e *Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// Names returns the distinct event names recorded, sorted.
func (m *MemSink) Names() []string {
	byName := m.DurByName()
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
