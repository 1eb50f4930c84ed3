package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced recorder clock.
type fakeClock struct{ t time.Duration }

func (c *fakeClock) now() time.Duration { return c.t }

// TestNilRecorderZeroAlloc is the acceptance guard for the disabled path:
// every hook a hot path calls must not allocate on a nil Recorder, and a
// nil TxnAgg must absorb Adds for free.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	var agg *TxnAgg
	var sink SpanID
	allocs := testing.AllocsPerRun(1000, func() {
		if r.Enabled() {
			t.Fatal("nil recorder enabled")
		}
		sink = r.NewID()
		sink = r.Span(0, 1, "n", "s", 0, 1, 2)
		r.Instant(1, "n", "i", 1, 2)
		sink = r.MsgSend(1, "a", "b", 64)
		r.MsgRecv(sink, "b", 64)
		r.CoreRun("n", 0, 0, time.Millisecond)
		r.Counter("n", "q", 3)
		r.CounterAdd("n", "q", 1)
		r.RecordTxn("t", true, time.Millisecond, agg)
		agg.Add(CompService, time.Millisecond)
		_ = agg.Sum()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
	_ = sink
}

// TestScopeHotPathZeroAlloc covers the pattern call sites use: reading an
// ambient *Scope whose recorder is nil and calling through it.
func TestScopeHotPathZeroAlloc(t *testing.T) {
	sc := &Scope{}
	allocs := testing.AllocsPerRun(1000, func() {
		if sc.R.Enabled() {
			t.Fatal("enabled")
		}
		sc.Agg.Add(CompNetwork, time.Microsecond)
		flow := sc.R.MsgSend(sc.Span, "a", "b", 10)
		sc.R.MsgRecv(flow, "b", 10)
	})
	if allocs != 0 {
		t.Fatalf("nil-scope hooks allocate: %v allocs/op", allocs)
	}
}

func TestSpanIDsSequential(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	a, b := r.NewID(), r.NewID()
	if a != 1 || b != 2 {
		t.Fatalf("ids %d, %d", a, b)
	}
	id := r.Span(0, a, "n", "s", 0, 0, 0)
	if id != 3 {
		t.Fatalf("span id %d", id)
	}
	if got := r.Span(7, 0, "n", "s", 0, 0, 0); got != 7 {
		t.Fatalf("pre-allocated id not honored: %d", got)
	}
}

func TestSpanInterval(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	start := c.t
	c.t += 5 * time.Millisecond
	r.Span(0, 0, "n", "work", start, 0, 0)
	ev := r.Events()
	if len(ev) != 1 || ev[0].At != start || ev[0].Dur != 5*time.Millisecond {
		t.Fatalf("events: %+v", ev)
	}
}

func TestTxnAggRedirect(t *testing.T) {
	a := NewTxnAgg()
	a.Add(CompNetwork, time.Millisecond)
	a.Redirect = CompConflict
	a.Add(CompNetwork, time.Millisecond)
	a.Add(CompService, time.Millisecond)
	a.Redirect = -1
	a.Add(CompService, time.Millisecond)
	if a.D[CompNetwork] != time.Millisecond {
		t.Fatalf("network %v", a.D[CompNetwork])
	}
	if a.D[CompConflict] != 2*time.Millisecond {
		t.Fatalf("conflict %v", a.D[CompConflict])
	}
	if a.D[CompService] != time.Millisecond {
		t.Fatalf("service %v", a.D[CompService])
	}
	if a.Sum() != 4*time.Millisecond {
		t.Fatalf("sum %v", a.Sum())
	}
}

func TestBreakdownFolding(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	a := NewTxnAgg()
	a.Add(CompService, 2*time.Millisecond)
	a.Add(CompNetwork, time.Millisecond)
	r.RecordTxn("new-order", true, 4*time.Millisecond, a)
	r.RecordTxn("new-order", false, 2*time.Millisecond, nil)
	bds := r.Breakdowns()
	if len(bds) != 1 {
		t.Fatalf("breakdowns: %+v", bds)
	}
	b := bds[0]
	if b.Count != 2 || b.Aborts != 1 || b.E2E != 6*time.Millisecond {
		t.Fatalf("breakdown: %+v", b)
	}
	if b.Sum() != 3*time.Millisecond || b.Other() != 3*time.Millisecond {
		t.Fatalf("sum %v other %v", b.Sum(), b.Other())
	}
}

func TestCountersSorted(t *testing.T) {
	c := &fakeClock{}
	r := NewCounters(c.now)
	r.CounterAdd("b", "x", 2)
	r.CounterAdd("a", "y", 1)
	r.Counter("a", "q", 9)
	cs := r.Counters()
	if len(cs) != 3 || cs[0].Name != "a/q" || cs[1].Name != "a/y" || cs[2].Name != "b/x" {
		t.Fatalf("counters: %+v", cs)
	}
	if len(r.Events()) != 0 {
		t.Fatal("counters-only recorder stored events")
	}
}

func TestMaxEventsDrops(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	r.maxEvents = 2
	for i := 0; i < 5; i++ {
		r.Instant(0, "n", "i", 0, 0)
	}
	if len(r.Events()) != 2 || r.Dropped() != 3 {
		t.Fatalf("events %d dropped %d", len(r.Events()), r.Dropped())
	}
}

// buildSample records a small cross-node exchange for exporter tests.
func buildSample() *Recorder {
	c := &fakeClock{}
	r := New(c.now)
	root := r.NewID()
	flow := r.MsgSend(root, "pn0", "sn0", 128)
	c.t += 10 * time.Microsecond
	r.MsgRecv(flow, "sn0", 128)
	hstart := c.t
	c.t += 30 * time.Microsecond
	r.Span(0, flow, "sn0", "handler", hstart, 128, 64)
	r.CoreRun("sn0", 0, hstart, c.t)
	r.Instant(root, "pn0", "read", 7, 1)
	r.Counter("pn0", "jobqueue", 3)
	c.t += 10 * time.Microsecond
	r.Span(root, 0, "pn0", "txn", 0, 1, 1)
	return r
}

func TestChromeTraceWellFormed(t *testing.T) {
	r := buildSample()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range evs {
		phases = append(phases, e["ph"].(string))
	}
	joined := strings.Join(phases, "")
	for _, want := range []string{"M", "X", "i", "s", "f", "C"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("missing phase %q in %v", want, phases)
		}
	}
	// The flow arrow endpoints must share an id.
	var sendID, recvID float64
	for _, e := range evs {
		switch e["ph"] {
		case "s":
			sendID = e["id"].(float64)
		case "f":
			recvID = e["id"].(float64)
		}
	}
	if sendID == 0 || sendID != recvID {
		t.Fatalf("flow ids: s=%v f=%v", sendID, recvID)
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildSample().WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildSample().WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("exports diverged for identical recorders")
	}
}

func TestChromeTraceNilRecorder(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]\n" {
		t.Fatalf("nil export: %q", buf.String())
	}
}

// TestLaneAllocation: two overlapping spans on one node must land on
// different lanes; a later non-overlapping span reuses the first lane.
func TestLaneAllocation(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	c.t = 10 * time.Microsecond
	r.Span(0, 0, "n", "a", 0, 0, 0) // [0,10)
	c.t = 8 * time.Microsecond
	r.Span(0, 0, "n", "b", 4*time.Microsecond, 0, 0) // [4,8) overlaps a
	c.t = 20 * time.Microsecond
	r.Span(0, 0, "n", "c", 12*time.Microsecond, 0, 0) // [12,20) after both
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	tids := map[string]float64{}
	for _, e := range evs {
		if e["ph"] == "X" {
			tids[e["name"].(string)] = e["tid"].(float64)
		}
	}
	if tids["a"] == tids["b"] {
		t.Fatalf("overlapping spans share a lane: %v", tids)
	}
	if tids["c"] != tids["a"] {
		t.Fatalf("lane not reused after close: %v", tids)
	}
}

func TestUsecFormat(t *testing.T) {
	cases := map[time.Duration]string{
		0:                       "0.000",
		1500 * time.Nanosecond:  "1.500",
		time.Millisecond:        "1000.000",
		-2500 * time.Nanosecond: "-2.500",
	}
	for d, want := range cases {
		if got := usec(d); got != want {
			t.Errorf("usec(%v) = %q, want %q", d, got, want)
		}
	}
}

func TestNodeUtilization(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	// Core 0 busy [0,1ms) and [1.5ms,2ms); core 1 busy [0,2ms).
	r.CoreRun("n", 0, 0, time.Millisecond)
	r.CoreRun("n", 0, 1500*time.Microsecond, 2*time.Millisecond)
	r.CoreRun("n", 1, 0, 2*time.Millisecond)
	mean := r.MeanUtilization()
	if len(mean) != 1 || mean[0].Cores != 2 || mean[0].Points[0].V != 0.875 {
		t.Fatalf("mean: %+v", mean)
	}
}

func TestQueueDepth(t *testing.T) {
	c := &fakeClock{}
	r := New(c.now)
	r.Counter("n", "q", 2)
	c.t = 100 * time.Microsecond
	r.Counter("n", "q", 4)
	c.t = 1500 * time.Microsecond
	r.Counter("n", "q", 6)
	series := r.QueueDepth("q", time.Millisecond)
	if len(series) != 1 || len(series[0].Points) != 2 {
		t.Fatalf("series: %+v", series)
	}
	if series[0].Points[0].V != 3 || series[0].Points[1].V != 6 {
		t.Fatalf("points: %+v", series[0].Points)
	}
}
