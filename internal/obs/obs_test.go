package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"tell/internal/trace"
)

func ms(n int64) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSeriesWindowingAndSnapshot(t *testing.T) {
	p := New(Config{Window: 100 * time.Millisecond, Windows: 4}, nil)
	p.ObserveClass(ms(10), "sn1", "store", ms(2))
	p.ObserveClass(ms(50), "sn1", "store", ms(4))
	p.ObserveClass(ms(150), "sn1", "store", ms(8)) // second window
	p.Count(ms(10), "sn1", "rate/msgs", 3)
	p.Count(ms(250), "sn1", "rate/msgs", 5) // third window

	snap := p.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("series = %d, want 2", len(snap))
	}
	// Sorted by (node, metric): lat/store before rate/msgs.
	lat, rate := snap[0], snap[1]
	if lat.Metric != "lat/store" || !lat.Hist || lat.Total != 3 {
		t.Fatalf("lat series = %+v", lat)
	}
	if len(lat.Points) != 2 || lat.Points[0].Count != 2 || lat.Points[1].Count != 1 {
		t.Fatalf("lat points = %+v", lat.Points)
	}
	if lat.Points[0].Idx != 0 || lat.Points[1].Idx != 1 || lat.Points[1].Start != ms(100) {
		t.Fatalf("lat point indices = %+v", lat.Points)
	}
	if rate.Metric != "rate/msgs" || rate.Hist || rate.Total != 8 {
		t.Fatalf("rate series = %+v", rate)
	}
	if len(rate.Points) != 2 || rate.Points[0].N != 3 || rate.Points[1].N != 5 {
		t.Fatalf("rate points = %+v", rate.Points)
	}
}

func TestSeriesRingEviction(t *testing.T) {
	p := New(Config{Window: ms(10), Windows: 4}, nil)
	for i := int64(0); i < 10; i++ {
		p.Count(ms(10*i), "n", "rate/x", 1)
	}
	snap := p.Snapshot()
	if snap[0].Total != 10 {
		t.Fatalf("total = %d, want 10 (eviction must not lose the monotonic total)", snap[0].Total)
	}
	if len(snap[0].Points) != 4 {
		t.Fatalf("points = %d, want ring capacity 4", len(snap[0].Points))
	}
	if snap[0].Points[0].Idx != 6 || snap[0].Points[3].Idx != 9 {
		t.Fatalf("retained window range = [%d, %d], want [6, 9]",
			snap[0].Points[0].Idx, snap[0].Points[3].Idx)
	}
}

func TestSLOBreachOnWindowClose(t *testing.T) {
	p := New(Config{
		Window: ms(100),
		SLOs:   []SLO{{Class: "neworder", P99: ms(10)}},
	}, nil)
	// Window 0: all observations slow — p99 >> 10ms target.
	for i := 0; i < 20; i++ {
		p.ObserveTxn(ms(5), "neworder", 0, ms(50), true)
	}
	if b, _ := p.Breaches(); len(b) != 0 {
		t.Fatalf("breach before window closed: %+v", b)
	}
	// Advancing into window 1 closes window 0 and evaluates it.
	p.ObserveTxn(ms(150), "neworder", 0, ms(1), true)
	b, _ := p.Breaches()
	if len(b) != 1 {
		t.Fatalf("breaches = %+v, want 1", b)
	}
	if b[0].Class != "neworder" || b[0].Quantile != "p99" || b[0].At != 0 || b[0].Count != 20 {
		t.Fatalf("breach = %+v", b[0])
	}
	if b[0].Observed <= b[0].Target {
		t.Fatalf("observed %v must exceed target %v", b[0].Observed, b[0].Target)
	}
	// Sync past window 1 closes it; its p99 (1ms) is under target — no new
	// breach — and a healthy class never breaches.
	p.Sync(ms(1000))
	if b, _ := p.Breaches(); len(b) != 1 {
		t.Fatalf("breaches after sync = %+v, want still 1", b)
	}
}

func TestHeatTracksHottestRange(t *testing.T) {
	p := New(Config{Window: ms(100)}, nil)
	h := p.Heat("sn1")
	for i := 0; i < 100; i++ {
		h.Add(ms(int64(i)), 3, HeatDelta{Reads: 1, ReadBytes: 64})
	}
	h.Add(ms(5), 1, HeatDelta{Writes: 1, WriteBytes: 32, Conflicts: 1})
	p.Heat("sn2").Add(ms(7), 2, HeatDelta{Reads: 2})

	rows := p.HeatRows()
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// Sorted by (node, range).
	if rows[0].Node != "sn1" || rows[0].Range != 1 || rows[2].Node != "sn2" {
		t.Fatalf("row order = %+v", rows)
	}
	SortHeatByRecent(rows)
	if hot := rows[0]; hot.Range != 3 || hot.Recent.Ops() != 100 || hot.Total.ReadBytes != 6400 {
		t.Fatalf("hottest-first order = %+v", rows)
	}
	if rows[1].Node != "sn2" || rows[2].Node != "sn1" {
		t.Fatalf("tie order (2 ops before 1 op) = %+v", rows)
	}
}

// TestHeatRecentAgesOut: a once-hot range must stop looking hot once its
// windows fall outside the retention horizon.
func TestHeatRecentAgesOut(t *testing.T) {
	p := New(Config{Window: ms(10), Windows: 4}, nil)
	h := p.Heat("sn1")
	h.Add(0, 7, HeatDelta{Reads: 50})
	p.Sync(ms(1000)) // long quiet period
	rows := p.HeatRows()
	if rows[0].Total.Reads != 50 {
		t.Fatalf("total lost: %+v", rows[0])
	}
	if rows[0].Recent.Ops() != 0 {
		t.Fatalf("recent ops = %d, want 0 after aging out", rows[0].Recent.Ops())
	}
}

// buildTrace emits a small two-node transaction span tree through a
// counters-only recorder feeding the flight tap, and returns the root id.
func buildTrace(r *trace.Recorder, clock *time.Duration) trace.SpanID {
	root := r.NewID()
	*clock += ms(1)
	child := r.NewID()
	flow := r.MsgSend(child, "client", "sn1", 100)
	*clock += ms(2)
	r.MsgRecv(flow, "sn1", 100)
	r.Instant(child, "sn1", "read", 1, 0)
	handler := r.Span(0, child, "sn1", "handler", *clock, 0, 0)
	_ = handler
	*clock += ms(1)
	r.Span(child, root, "client", "rpc", *clock-ms(4), 0, 0)
	r.Span(root, 0, "client", "txn", *clock-ms(5), 0, 0)
	return root
}

func TestFlightCapturesSlowTxn(t *testing.T) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	p := New(Config{Window: ms(100), Slow: ms(20), FlightEvents: 1024}, now)
	r := trace.NewCounters(now)
	r.SetTap(p.Flight())

	// A fast transaction: below threshold, not captured.
	fastRoot := buildTrace(r, &clock)
	p.ObserveTxn(clock, "neworder", fastRoot, ms(5), true)

	// A slow one: captured with its full tree, not the fast one's.
	slowRoot := buildTrace(r, &clock)
	p.ObserveTxn(clock, "neworder", slowRoot, ms(25), true)

	caps, evicted := p.Flight().Captures()
	if len(caps) != 1 || evicted != 0 {
		t.Fatalf("captures = %d evicted = %d, want 1/0", len(caps), evicted)
	}
	c := caps[0]
	if c.Reason != "slow" || c.Root != slowRoot || c.E2E != ms(25) || c.Threshold != ms(20) {
		t.Fatalf("capture = %+v", c)
	}
	// Tree: txn span, rpc span, handler span, msg send+recv, instant = 6.
	if len(c.Events) != 6 {
		t.Fatalf("events = %d (%+v), want 6", len(c.Events), c.Events)
	}
	for _, e := range c.Events {
		if e.ID == fastRoot || e.Parent == fastRoot {
			t.Fatalf("fast txn's event leaked into capture: %+v", e)
		}
	}
	// Perfetto export of just this capture renders its events.
	var buf bytes.Buffer
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"handler"`) || !strings.Contains(buf.String(), `"send:sn1"`) {
		t.Fatalf("chrome trace missing capture content:\n%s", buf.String())
	}
}

func TestFlightAbortStreak(t *testing.T) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	p := New(Config{Window: ms(100), AbortStreak: 3, FlightEvents: 1024}, now)
	r := trace.NewCounters(now)
	r.SetTap(p.Flight())

	for i := 0; i < 2; i++ {
		root := buildTrace(r, &clock)
		p.ObserveTxn(clock, "payment", root, ms(1), false)
	}
	if caps, _ := p.Flight().Captures(); len(caps) != 0 {
		t.Fatalf("captured before streak length reached: %d", len(caps))
	}
	root := buildTrace(r, &clock)
	p.ObserveTxn(clock, "payment", root, ms(1), false)
	caps, _ := p.Flight().Captures()
	if len(caps) != 1 || caps[0].Reason != "abort-streak" || caps[0].Root != root {
		t.Fatalf("captures = %+v", caps)
	}
	// Streak reset: two more aborts don't re-fire...
	for i := 0; i < 2; i++ {
		rt := buildTrace(r, &clock)
		p.ObserveTxn(clock, "payment", rt, ms(1), false)
	}
	if caps, _ := p.Flight().Captures(); len(caps) != 1 {
		t.Fatalf("streak did not reset: %d captures", len(caps))
	}
	// ...and a commit in between restarts the count.
	ok := buildTrace(r, &clock)
	p.ObserveTxn(clock, "payment", ok, ms(1), true)
	for i := 0; i < 3; i++ {
		rt := buildTrace(r, &clock)
		p.ObserveTxn(clock, "payment", rt, ms(1), false)
	}
	if caps, _ := p.Flight().Captures(); len(caps) != 2 {
		t.Fatalf("captures after second streak = %d, want 2", len(caps))
	}
}

func TestFlightAdaptiveOutlier(t *testing.T) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	p := New(Config{Window: ms(100), AdaptiveOutliers: true, MinSamples: 100,
		FlightEvents: 4096, AbortStreak: -1}, now)
	r := trace.NewCounters(now)
	r.SetTap(p.Flight())

	// 200 unremarkable transactions arm the threshold near 1ms...
	for i := 0; i < 200; i++ {
		root := buildTrace(r, &clock)
		p.ObserveTxn(clock, "neworder", root, ms(1), true)
	}
	if caps, _ := p.Flight().Captures(); len(caps) != 0 {
		t.Fatalf("uniform traffic captured: %d", len(caps))
	}
	// ...so a 100ms straggler is a p99.9 outlier.
	root := buildTrace(r, &clock)
	p.ObserveTxn(clock, "neworder", root, ms(100), true)
	caps, _ := p.Flight().Captures()
	if len(caps) != 1 || caps[0].Reason != "p999-outlier" {
		t.Fatalf("captures = %+v", caps)
	}
	if caps[0].Threshold <= 0 || caps[0].Threshold > ms(2) {
		t.Fatalf("adaptive threshold = %v, want ~1ms", caps[0].Threshold)
	}
}

func TestFlightCaptureRingBounded(t *testing.T) {
	var clock time.Duration
	now := func() time.Duration { return clock }
	p := New(Config{Window: ms(100), Slow: ms(1), FlightEvents: 1024,
		FlightCaptures: 2}, now)
	r := trace.NewCounters(now)
	r.SetTap(p.Flight())
	var roots []trace.SpanID
	for i := 0; i < 5; i++ {
		root := buildTrace(r, &clock)
		roots = append(roots, root)
		p.ObserveTxn(clock, "neworder", root, ms(10), true)
	}
	caps, evicted := p.Flight().Captures()
	if len(caps) != 2 || evicted != 3 {
		t.Fatalf("captures = %d evicted = %d, want 2/3", len(caps), evicted)
	}
	if caps[0].Root != roots[3] || caps[1].Root != roots[4] {
		t.Fatalf("retained wrong captures: %+v", caps)
	}
}

// synthLoad drives one deterministic synthetic workload through a fresh
// pipeline + recorder pair and returns the dump and prom exposition.
func synthLoad(t *testing.T) (string, string) {
	t.Helper()
	var clock time.Duration
	now := func() time.Duration { return clock }
	p := New(Config{
		Window: ms(50), Windows: 8,
		SLOs: []SLO{{Class: "neworder", P99: ms(30)}},
		Slow: ms(40), FlightEvents: 8192,
	}, now)
	r := trace.NewCounters(now)
	r.SetTap(p.Flight())
	h := p.Heat("sn1")

	lat := []int64{2, 5, 9, 50, 3, 41, 7, 2, 60, 4}
	for i := 0; i < 40; i++ {
		root := buildTrace(r, &clock)
		d := ms(lat[i%len(lat)])
		committed := i%7 != 3
		p.ObserveTxn(clock, "neworder", root, d, committed)
		h.Add(clock, uint64(i%3), HeatDelta{Reads: 2, Writes: 1,
			ReadBytes: 128, WriteBytes: 64, Lat: d, LatN: 1})
		p.Count(clock, "sn1", "rate/msgs", 4)
		p.ObserveClass(clock, "sn1", "store", d/10)
		clock += ms(13)
	}

	var dump, prom bytes.Buffer
	if err := p.WriteDump(&dump, clock); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePrometheus(&prom, clock); err != nil {
		t.Fatal(err)
	}
	return dump.String(), prom.String()
}

// TestDeterministicDump: two identical synthetic runs must produce
// byte-identical dumps and expositions — the package-level determinism
// contract the end-to-end obs golden builds on.
func TestDeterministicDump(t *testing.T) {
	d1, p1 := synthLoad(t)
	d2, p2 := synthLoad(t)
	if d1 != d2 {
		t.Fatalf("dumps differ:\n--- run1\n%s\n--- run2\n%s", d1, d2)
	}
	if p1 != p2 {
		t.Fatalf("prom expositions differ:\n--- run1\n%s\n--- run2\n%s", p1, p2)
	}
	// The workload has slow transactions and an SLO set tight enough to
	// breach; the dump must show real content, not vacuous equality.
	for _, want := range []string{"series ", "heat sn1", "breach ", "capture "} {
		if !strings.Contains(d1, want) {
			t.Fatalf("dump missing %q:\n%s", want, d1)
		}
	}
}

// TestPromGolden pins the exact exposition for a tiny fixed input: the
// format is a wire contract for scrapers, so any change must be deliberate.
func TestPromGolden(t *testing.T) {
	p := New(Config{Window: ms(100), SLOs: []SLO{{Class: "neworder", P99: ms(1)}}}, nil)
	p.ObserveTxn(ms(10), "neworder", 0, ms(4), true)
	p.ObserveTxn(ms(20), "neworder", 0, ms(4), false)
	p.Heat("sn1").Add(ms(10), 2, HeatDelta{Reads: 3, Writes: 1, ReadBytes: 256, Conflicts: 1})

	var buf bytes.Buffer
	if err := p.WritePrometheus(&buf, ms(250)); err != nil {
		t.Fatal(err)
	}
	want := `# HELP tell_latency_seconds Latency quantiles over the retained windows.
# TYPE tell_latency_seconds summary
tell_latency_seconds{node="txn",metric="lat/neworder",quantile="0.5"} 0.004067944
tell_latency_seconds{node="txn",metric="lat/neworder",quantile="0.99"} 0.004067944
tell_latency_seconds{node="txn",metric="lat/neworder",quantile="0.999"} 0.004067944
tell_latency_seconds_sum{node="txn",metric="lat/neworder"} 0.008
tell_latency_seconds_count{node="txn",metric="lat/neworder"} 2
# HELP tell_events_total All-time event counts per rate series.
# TYPE tell_events_total counter
tell_events_total{node="txn",metric="rate/aborted"} 1
tell_events_total{node="txn",metric="rate/committed"} 1
# HELP tell_range_ops_total All-time operations (reads+writes) per range.
# TYPE tell_range_ops_total counter
tell_range_ops_total{node="sn1",range="2"} 4
# HELP tell_range_conflicts_total All-time write conflicts per range.
# TYPE tell_range_conflicts_total counter
tell_range_conflicts_total{node="sn1",range="2"} 1
# HELP tell_range_bytes_total All-time payload bytes per range.
# TYPE tell_range_bytes_total counter
tell_range_bytes_total{node="sn1",range="2"} 256
# HELP tell_range_recent_ops Operations per range over the retention horizon.
# TYPE tell_range_recent_ops gauge
tell_range_recent_ops{node="sn1",range="2"} 4
# HELP tell_slo_breaches_total Closed windows whose quantile exceeded its SLO target.
# TYPE tell_slo_breaches_total counter
tell_slo_breaches_total{class="neworder",quantile="p99"} 1
# HELP tell_flight_captures Flight-recorder captures retained / evicted / events seen.
# TYPE tell_flight_captures gauge
tell_flight_captures{state="retained"} 0
tell_flight_captures{state="evicted"} 0
tell_flight_captures{state="events_seen"} 0
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition drifted:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestDisabledPipelineZeroAlloc pins the disabled path: every hook on a
// nil pipeline (and nil heat/flight) must allocate nothing, so callers can
// leave telemetry hooks unconditional on hot paths.
func TestDisabledPipelineZeroAlloc(t *testing.T) {
	var p *Pipeline
	h := p.Heat("sn1")
	f := p.Flight()
	if h != nil || f != nil {
		t.Fatal("disabled pipeline handed out live components")
	}
	allocs := testing.AllocsPerRun(100, func() {
		p.ObserveTxn(ms(1), "neworder", 1, ms(5), true)
		p.ObserveClass(ms(1), "sn1", "store", ms(1))
		p.Count(ms(1), "sn1", "rate/msgs", 1)
		p.Sync(ms(1))
		h.Add(ms(1), 0, HeatDelta{Reads: 1})
		f.TraceEvent(trace.Event{})
		f.observe(ms(1), "neworder", 1, ms(5), true, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f per run, want 0", allocs)
	}
}

func TestNilPipelineQueriesSafe(t *testing.T) {
	var p *Pipeline
	if p.Enabled() || p.Snapshot() != nil || p.HeatRows() != nil {
		t.Fatal("nil pipeline returned live data")
	}
	if b, n := p.Breaches(); b != nil || n != 0 {
		t.Fatal("nil breaches")
	}
	var buf bytes.Buffer
	if err := p.WriteDump(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.WritePrometheus(&buf, 0); err != nil {
		t.Fatal(err)
	}
	var f *Flight
	if c, n := f.Captures(); c != nil || n != 0 || f.Seen() != 0 {
		t.Fatal("nil flight returned data")
	}
}
