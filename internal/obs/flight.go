package obs

import (
	"hash/fnv"
	"io"
	"sync"
	"time"

	"tell/internal/trace"
)

// Flight is the slow-transaction flight recorder: a bounded ring of the
// most recent trace events (fed through trace.Recorder's tap, so it works
// even in counters-only mode where the Recorder stores nothing) from which
// the span tree of a transaction that just proved interesting — slower
// than the fixed or adaptive threshold, or extending an abort streak — is
// extracted retroactively. Tail-based sampling: the keep/drop decision is
// made after the outcome is known, so the ring holds everything briefly
// and the captures hold only outliers.
//
// Memory is bounded by FlightEvents ring slots plus FlightCaptures
// retained captures. Under the deterministic kernel the ring contents,
// thresholds and therefore the captures are byte-identical across
// same-seed runs. All methods are nil-safe.
type Flight struct {
	cfg Config

	mu     sync.Mutex
	ring   []trace.Event
	head   int    // next write position
	filled bool   // ring has wrapped at least once
	seen   uint64 // total events ever offered

	streak   map[string]int // class -> consecutive aborts
	captures []Capture
	next     uint64 // capture sequence number
	evicted  uint64 // captures pushed out of the bounded window
}

// Capture is one retained outlier: the transaction's identity, why it was
// kept, and its extracted span tree (spans, instants and message flows in
// recording order).
type Capture struct {
	Seq       uint64
	At        time.Duration // observation time (transaction end)
	Class     string
	Root      trace.SpanID
	E2E       time.Duration
	Committed bool
	// Reason is "slow" (fixed threshold), "p999-outlier" (adaptive
	// threshold) or "abort-streak".
	Reason    string
	Threshold time.Duration // threshold that fired (zero for abort-streak)
	Events    []trace.Event
}

func newFlight(cfg Config) *Flight {
	return &Flight{
		cfg:    cfg,
		ring:   make([]trace.Event, cfg.FlightEvents),
		streak: make(map[string]int),
	}
}

// TraceEvent implements trace.Tap: every event the recorder sees lands in
// the ring, overwriting the oldest. Called with the Recorder's lock held —
// it must stay cheap and must not call back into the recorder (it doesn't:
// one ring store under the Flight lock).
func (f *Flight) TraceEvent(e trace.Event) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.head] = e
	f.head++
	if f.head == len(f.ring) {
		f.head, f.filled = 0, true
	}
	f.seen++
	f.mu.Unlock()
}

// observe applies the capture policy to one finished transaction. slow is
// the fixed threshold, adaptive the class p99.9 threshold (zero when not
// yet armed); either firing — or the class's abort streak reaching the
// configured length — captures the transaction's span tree from the ring.
func (f *Flight) observe(at time.Duration, class string, root trace.SpanID,
	e2e time.Duration, committed bool, slow, adaptive time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()

	reason := ""
	var threshold time.Duration
	if !committed && f.cfg.AbortStreak > 0 {
		f.streak[class]++
		if f.streak[class] >= f.cfg.AbortStreak {
			reason = "abort-streak"
			f.streak[class] = 0
		}
	} else if committed {
		f.streak[class] = 0
	}
	if reason == "" && slow > 0 && e2e >= slow {
		reason, threshold = "slow", slow
	}
	if reason == "" && adaptive > 0 && e2e >= adaptive {
		reason, threshold = "p999-outlier", adaptive
	}
	if reason == "" || root == 0 {
		return
	}

	c := Capture{Seq: f.next, At: at, Class: class, Root: root, E2E: e2e,
		Committed: committed, Reason: reason, Threshold: threshold,
		Events: f.extractLocked(root)}
	f.next++
	f.captures = append(f.captures, c)
	if len(f.captures) > f.cfg.FlightCaptures {
		// Keep the most recent window of captures.
		copy(f.captures, f.captures[1:])
		f.captures = f.captures[:len(f.captures)-1]
		f.evicted++
	}
}

// extractLocked pulls the span tree rooted at root out of the ring.
//
// Spans are recorded when they close, and children close before their
// ancestors (response arrives after the handler span it caused), so a
// backward scan sees every ancestor before its descendants: an event
// belongs to the tree if its ID is the root or its Parent is already a
// member. A second, forward pass then collects the tree's events in
// recording order and joins message flows — a send whose Parent is in the
// tree admits the matching recv (sends precede recvs in forward order).
// Caller holds f.mu.
func (f *Flight) extractLocked(root trace.SpanID) []trace.Event {
	n := f.head
	if f.filled {
		n = len(f.ring)
	}
	// at returns the i-th oldest retained event.
	at := func(i int) *trace.Event {
		if f.filled {
			return &f.ring[(f.head+i)%len(f.ring)]
		}
		return &f.ring[i]
	}

	ids := map[trace.SpanID]bool{root: true}
	for i := n - 1; i >= 0; i-- {
		e := at(i)
		if e.Kind != trace.KindSpan {
			continue
		}
		if ids[e.ID] || (e.Parent != 0 && ids[e.Parent]) {
			ids[e.ID] = true
		}
	}

	var out []trace.Event
	flows := make(map[trace.SpanID]bool)
	for i := 0; i < n; i++ {
		e := at(i)
		switch e.Kind {
		case trace.KindSpan:
			if ids[e.ID] {
				out = append(out, *e)
			}
		case trace.KindInstant:
			if e.Parent != 0 && ids[e.Parent] {
				out = append(out, *e)
			}
		case trace.KindMsgSend:
			if e.Parent != 0 && ids[e.Parent] {
				flows[e.ID] = true
				out = append(out, *e)
			}
		case trace.KindMsgRecv:
			if flows[e.ID] {
				out = append(out, *e)
			}
		}
	}
	return out
}

// Captures returns the retained captures in sequence order plus how many
// older ones were evicted by the retention cap.
func (f *Flight) Captures() ([]Capture, uint64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Capture, len(f.captures))
	copy(out, f.captures)
	return out, f.evicted
}

// Seen returns how many trace events have passed through the ring.
func (f *Flight) Seen() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Hash is a compact FNV-1a digest of the capture's identity and events,
// used by determinism goldens to compare flight contents across runs
// without embedding full event dumps.
func (c *Capture) Hash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	ws := func(s string) {
		io.WriteString(h, s)
	}
	w64(c.Seq)
	w64(uint64(c.At))
	ws(c.Class)
	w64(uint64(c.Root))
	w64(uint64(c.E2E))
	ws(c.Reason)
	for i := range c.Events {
		e := &c.Events[i]
		w64(uint64(e.Kind))
		w64(uint64(e.At))
		w64(uint64(e.Dur))
		w64(uint64(e.ID))
		w64(uint64(e.Parent))
		ws(e.Node)
		ws(e.Name)
		w64(uint64(e.Arg1))
		w64(uint64(e.Arg2))
	}
	return h.Sum64()
}
