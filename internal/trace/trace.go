// Package trace is the deterministic event-tracing and telemetry layer
// for the simulator and the real-network runtime. A Recorder stamps typed
// span events with the owning environment's clock (virtual time under
// internal/sim), so two runs with the same seed produce byte-identical
// traces — attribution you can diff, which no wall-clock tracer offers.
//
// The Recorder is designed to be free when absent: every hook method has a
// nil-receiver fast path, takes only scalar/string arguments (no variadics,
// no interface boxing), and is safe to call unconditionally from hot paths.
// Code reaches the recorder ambiently through env.Ctx.Trace(), which hands
// out a *Scope carrying the recorder, the current causal parent span, and
// (while a transaction is being measured) a per-transaction latency
// aggregator.
package trace

import (
	"sync"
	"sync/atomic"
	"time"

	"tell/internal/det"
)

// SpanID identifies a span or a message flow. IDs are allocated
// sequentially, so under the deterministic kernel the numbering itself is
// reproducible. Zero means "no parent".
type SpanID uint64

// Kind discriminates Event records.
type Kind uint8

const (
	// KindSpan is a closed interval [At, At+Dur) of named activity on a
	// node (transaction lifecycle step, message handler, ...).
	KindSpan Kind = iota
	// KindInstant is a point event (read/write/abort marker, B+tree
	// split, commit-manager epoch tick).
	KindInstant
	// KindMsgSend marks a message leaving Node; ID is the flow id that
	// the matching KindMsgRecv carries, Arg1 the payload size in bytes.
	KindMsgSend
	// KindMsgRecv marks a message arriving at Node (same ID as the send).
	KindMsgRecv
	// KindCoreRun is a busy interval [At, At+Dur) of core Arg1 on Node.
	KindCoreRun
	// KindCounter samples a named per-node counter (e.g. queue depth);
	// Arg1 is the sampled value.
	KindCounter
)

// Event is one trace record. The struct is flat (no pointers beyond the
// two strings, which are shared literals or node names) so the event log
// is a single slice with no per-event allocation.
type Event struct {
	Kind   Kind
	At     time.Duration // event (or interval start) time on the env clock
	Dur    time.Duration // interval length for KindSpan / KindCoreRun
	ID     SpanID        // span id, or flow id for msg send/recv
	Parent SpanID        // causal parent span (0 = root)
	Node   string
	Name   string
	Arg1   int64
	Arg2   int64
}

// DefaultMaxEvents bounds the in-memory event log (~64 B/event ⇒ ~256 MiB
// at the cap). Past the cap events are counted in Dropped but not stored;
// aggregation (breakdowns, counters) keeps running regardless.
const DefaultMaxEvents = 4 << 20

// Tap observes every event at the moment it is recorded, independently of
// whether the event log stores it — a counters-only Recorder (maxEvents 0)
// still feeds its tap, which is how a daemon's flight recorder sees span
// trees without the Recorder buffering anything. TraceEvent is called with
// the Recorder's internal lock held: implementations must be fast,
// non-blocking, and must never call back into the Recorder.
type Tap interface {
	TraceEvent(Event)
}

// Recorder collects events and running aggregates. All methods are safe on
// a nil receiver (no-ops), which is the "tracing disabled" representation.
type Recorder struct {
	now       func() time.Duration
	maxEvents int

	nextID atomic.Uint64

	mu        sync.Mutex
	tap       Tap
	events    []Event
	dropped   uint64
	breakdown map[string]*Breakdown
	totals    map[string]int64 // "node/name" -> last value for counters
}

// New returns a Recorder stamping events with now — the owning
// environment's clock, injected so this package needs no dependency on
// internal/env or internal/sim.
func New(now func() time.Duration) *Recorder {
	return &Recorder{
		now:       now,
		maxEvents: DefaultMaxEvents,
		breakdown: make(map[string]*Breakdown),
		totals:    make(map[string]int64),
	}
}

// NewCounters returns a Recorder that keeps only running aggregates
// (counters, breakdowns) and stores no events — the cheap always-on mode
// a daemon uses to serve stats snapshots.
func NewCounters(now func() time.Duration) *Recorder {
	r := New(now)
	r.maxEvents = 0
	return r
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// NewID allocates the next span/flow id.
func (r *Recorder) NewID() SpanID {
	if r == nil {
		return 0
	}
	return SpanID(r.nextID.Add(1))
}

// SetTap installs t as the recorder's event tap (nil removes it). Install
// before the run starts; the tap sees every subsequent event in recording
// order, which is deterministic under the simulation kernel.
func (r *Recorder) SetTap(t Tap) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tap = t
	r.mu.Unlock()
}

func (r *Recorder) append(e Event) {
	r.mu.Lock()
	if r.tap != nil {
		r.tap.TraceEvent(e)
	}
	if r.maxEvents > 0 && len(r.events) < r.maxEvents {
		r.events = append(r.events, e)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// Span records a closed interval that started at start and ends now.
// id may be pre-allocated (to hand to children before the span closes) or
// zero to allocate one here; the used id is returned.
func (r *Recorder) Span(id, parent SpanID, node, name string, start time.Duration, a1, a2 int64) SpanID {
	if r == nil {
		return 0
	}
	if id == 0 {
		id = r.NewID()
	}
	end := r.now()
	r.append(Event{Kind: KindSpan, At: start, Dur: end - start, ID: id,
		Parent: parent, Node: node, Name: name, Arg1: a1, Arg2: a2})
	return id
}

// Instant records a point event at the current time.
func (r *Recorder) Instant(parent SpanID, node, name string, a1, a2 int64) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindInstant, At: r.now(), ID: r.NewID(),
		Parent: parent, Node: node, Name: name, Arg1: a1, Arg2: a2})
}

// MsgSend records a message leaving src and returns the flow id the
// receiver should acknowledge with MsgRecv. parent is the span on whose
// behalf the message travels.
func (r *Recorder) MsgSend(parent SpanID, src, dst string, bytes int64) SpanID {
	if r == nil {
		return 0
	}
	id := r.NewID()
	r.append(Event{Kind: KindMsgSend, At: r.now(), ID: id, Parent: parent,
		Node: src, Name: dst, Arg1: bytes})
	return id
}

// MsgRecv records the arrival at dst of the message with flow id id.
func (r *Recorder) MsgRecv(id SpanID, dst string, bytes int64) {
	if r == nil || id == 0 {
		return
	}
	r.append(Event{Kind: KindMsgRecv, At: r.now(), ID: id, Node: dst, Arg1: bytes})
}

// CoreRun records that core unit on node was busy over [start, end).
func (r *Recorder) CoreRun(node string, unit int, start, end time.Duration) {
	if r == nil {
		return
	}
	r.append(Event{Kind: KindCoreRun, At: start, Dur: end - start,
		Node: node, Name: "run", Arg1: int64(unit)})
}

// Counter samples a named per-node counter (queue depth, cache size, ...).
func (r *Recorder) Counter(node, name string, v int64) {
	if r == nil {
		return
	}
	at := r.now()
	e := Event{Kind: KindCounter, At: at, Node: node, Name: name, Arg1: v}
	r.mu.Lock()
	r.totals[node+"/"+name] = v
	if r.tap != nil {
		r.tap.TraceEvent(e)
	}
	if r.maxEvents > 0 && len(r.events) < r.maxEvents {
		r.events = append(r.events, e)
	} else if r.maxEvents > 0 {
		r.dropped++
	}
	r.mu.Unlock()
}

// CounterAdd bumps a named per-node running total without storing an
// event — the form daemon counters use.
func (r *Recorder) CounterAdd(node, name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.totals[node+"/"+name] += delta
	r.mu.Unlock()
}

// RecordTxn folds one finished transaction into the per-type breakdown.
// agg may be nil (the transaction was not attributed).
func (r *Recorder) RecordTxn(typ string, committed bool, e2e time.Duration, agg *TxnAgg) {
	if r == nil {
		return
	}
	r.mu.Lock()
	b := r.breakdown[typ]
	if b == nil {
		b = &Breakdown{Type: typ}
		r.breakdown[typ] = b
	}
	b.Count++
	if !committed {
		b.Aborts++
	}
	b.E2E += e2e
	if agg != nil {
		for c := Comp(0); c < NComps; c++ {
			b.Comp[c] += agg.D[c]
		}
	}
	r.mu.Unlock()
}

// Events returns a snapshot of the stored event log (recorded order, which
// is deterministic under the simulation kernel).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, len(r.events))
	copy(out, r.events)
	return out
}

// Dropped returns how many events were discarded at the MaxEvents cap.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// CounterStat is one named running total, for stats snapshots.
type CounterStat struct {
	Name  string // "node/name"
	Value int64
}

// Counters returns the running totals sorted by name.
func (r *Recorder) Counters() []CounterStat {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]CounterStat, 0, len(r.totals))
	for _, k := range det.Keys(r.totals) {
		out = append(out, CounterStat{Name: k, Value: r.totals[k]})
	}
	return out
}

// Breakdowns returns the per-transaction-type latency breakdowns sorted by
// type name.
func (r *Recorder) Breakdowns() []Breakdown {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Breakdown, 0, len(r.breakdown))
	for _, k := range det.Keys(r.breakdown) {
		out = append(out, *r.breakdown[k])
	}
	return out
}

// Scope is the ambient tracing state an env.Ctx carries: the recorder (nil
// when tracing is off), the current causal parent span, and — only on the
// context driving a measured transaction — the latency aggregator. Spawned
// activities inherit R and Span but never Agg, so concurrent sub-activities
// cannot double-count time into one transaction's breakdown.
type Scope struct {
	R    *Recorder
	Span SpanID
	Agg  *TxnAgg
}
