package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

func TestPickTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {99, 0}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// Nearest rank: the p-quantile of 1..100 is 100p.
	s := make([]time.Duration, 100)
	for i := range s {
		s[i] = time.Duration(i + 1)
	}
	for p, want := range map[float64]time.Duration{0.5: 50, 0.95: 95, 0.99: 99, 0.001: 1, 1: 100} {
		if got := quantile(s, p); got != want {
			t.Errorf("quantile(1..100, %v) = %d, want %d", p, got, want)
		}
	}
	if got := median([]float64{3, 1, 4, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// oneServer is a TPC-C engine with a single server that takes `service` per
// transaction, and `stall` longer on the transaction numbered stallAt.
type oneServer struct {
	lock    *env.Locker
	service time.Duration
	stallAt int
	stall   time.Duration
	served  int
	begins  []time.Duration
}

func (e *oneServer) serve(ctx env.Ctx) (bool, error) {
	e.lock.Lock(ctx)
	defer e.lock.Unlock()
	e.begins = append(e.begins, ctx.Now())
	d := e.service
	if e.served == e.stallAt {
		d += e.stall
	}
	e.served++
	ctx.Sleep(d)
	return true, nil
}

func (e *oneServer) NewOrder(ctx env.Ctx, _ *tpcc.NewOrderInput) (bool, error) { return e.serve(ctx) }
func (e *oneServer) Payment(ctx env.Ctx, _ *tpcc.PaymentInput) (bool, error)   { return e.serve(ctx) }
func (e *oneServer) OrderStatus(ctx env.Ctx, _ *tpcc.OrderStatusInput) (bool, error) {
	return e.serve(ctx)
}
func (e *oneServer) Delivery(ctx env.Ctx, _ *tpcc.DeliveryInput) (bool, error) { return e.serve(ctx) }
func (e *oneServer) StockLevel(ctx env.Ctx, _ *tpcc.StockLevelInput) (bool, error) {
	return e.serve(ctx)
}

// runOpen drives one open-loop stage against a oneServer engine.
func runOpen(t *testing.T, seed int64, st stage, eng *oneServer) *stageResult {
	t.Helper()
	k := sim.NewKernel(seed)
	envr := env.NewSim(k)
	eng.lock = env.NewLocker(envr)
	cfg := tpcc.Config{Warehouses: 2, Scale: 0.02, Seed: seed}
	d := &deployment{w: workload{warehouses: 2, mix: tpcc.StandardMix()}, cfg: cfg, envr: envr, engines: []tpcc.Engine{eng}, driver: envr.NewNode("terminals", 4)}
	var res []*stageResult
	d.driver.Go("driver", func(ctx env.Ctx) {
		defer k.Stop()
		res = newDriver(d, seed).run(ctx, []stage{st}, 1)
	})
	if err := k.RunUntil(sim.Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
	if len(res) != 1 {
		t.Fatal("stage did not finish")
	}
	return res[0]
}

func allSamples(r *stageResult) []time.Duration {
	var all []time.Duration
	for _, l := range r.lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

func TestOpenLoopScheduleAndStall(t *testing.T) {
	const rate, n = 1000.0, 400
	st := stage{rate: rate, measure: n, ref: true}
	service := 200 * time.Microsecond // 20 % utilisation: no queue without a stall

	// The schedule is a function of the seed alone and does not wait for
	// the system: same seed, same arrival instants, whatever the engine does.
	calm := &oneServer{service: service, stallAt: -1}
	a := runOpen(t, 7, st, calm)
	calm2 := &oneServer{service: service, stallAt: -1}
	b := runOpen(t, 7, st, calm2)
	if !reflect.DeepEqual(a.lat, b.lat) || !reflect.DeepEqual(calm.begins, calm2.begins) {
		t.Fatal("two runs of one seed differ")
	}
	other := &oneServer{service: service, stallAt: -1}
	runOpen(t, 8, st, other)
	if reflect.DeepEqual(calm.begins, other.begins) {
		t.Fatal("another seed produced the same schedule")
	}
	if a.issued != n || a.totalCommitted() != n || a.latenessMax != 0 {
		t.Fatalf("issued %d committed %d lateness %v, want %d %d 0", a.issued, a.totalCommitted(), a.latenessMax, n, n)
	}
	// Poisson arrivals at `rate`: the window of n arrivals is about n/rate.
	if w := a.window().Seconds(); math.Abs(w-n/rate) > 0.25*n/rate {
		t.Fatalf("window of %d arrivals at %v/s is %vs", n, rate, w)
	}
	if p99 := quantile(allSamples(a), 0.99); p99 > 10*service {
		t.Fatalf("calm p99 %v: queueing without a stall", p99)
	}

	// One 50 ms stall. A closed loop would simply issue less; the open loop
	// keeps arriving, and because latency is counted from the due time every
	// transaction that queued behind the stall is charged its wait: about
	// rate*stall of them are late, the first by almost the whole stall.
	const stall = 50 * time.Millisecond
	stalled := &oneServer{service: service, stallAt: 100, stall: stall}
	s := runOpen(t, 7, st, stalled)
	if !reflect.DeepEqual(stalled.begins[:101], calm.begins[:101]) {
		t.Fatal("the stall changed the schedule before it happened")
	}
	lat := allSamples(s)
	if max := lat[len(lat)-1]; max < stall || max > stall+10*service {
		t.Fatalf("worst latency %v, want about the stall %v", max, stall)
	}
	delayed := 0
	for _, l := range lat {
		if l > stall/10 {
			delayed++
		}
	}
	if want := rate * stall.Seconds(); float64(delayed) < 0.5*want || float64(delayed) > 2*want {
		t.Fatalf("%d transactions delayed by the stall, want about %v", delayed, want)
	}
	// The backlog test of max_rate_under_slo sees it: the stall sits in the
	// first half, so that half's p95 is far above the second's.
	if h0, h1 := quantile(s.halves[0], 0.95), quantile(s.halves[1], 0.95); h0 < 5*h1 {
		t.Fatalf("half p95s %v / %v do not show the stall", h0, h1)
	}
}

func TestMaxRateUnderSLO(t *testing.T) {
	mk := func(rate float64, first, second time.Duration) *stageResult {
		r := &stageResult{stage: stage{rate: rate}}
		for i := 0; i < 100; i++ {
			r.halves[0] = append(r.halves[0], first)
			r.halves[1] = append(r.halves[1], second)
		}
		r.lat[tpcc.TxNewOrder] = append(append([]time.Duration(nil), r.halves[0]...), r.halves[1]...)
		return r
	}
	ms := time.Millisecond
	stages := []*stageResult{
		mk(8000, 1*ms, 1*ms),
		mk(12000, 2*ms, 2*ms),
		mk(14000, 1*ms, 2*ms),       // within the limit, but the backlog grows
		mk(16000, 3*ms, 3*ms),       // over the limit
		mk(18000, 2400*ms/1000, ms), // under the limit again: still counts
	}
	if got := maxRateUnderSLO(stages); got != 18000 {
		t.Fatalf("max rate %v, want 18000", got)
	}
	if got := maxRateUnderSLO(stages[:4]); got != 12000 {
		t.Fatalf("max rate %v, want 12000", got)
	}
	if got := maxRateUnderSLO(stages[3:4]); got != 0 {
		t.Fatalf("max rate %v, want 0", got)
	}
}

// pb is a minimal protobuf writer for the profile fixture.
type pb struct{ bytes.Buffer }

func (p *pb) varint(field int, v uint64) {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3), v))
}

func (p *pb) bytesField(field int, b []byte) {
	p.Write(binary.AppendUvarint(binary.AppendUvarint(nil, uint64(field)<<3|2), uint64(len(b))))
	p.Write(b)
}

func (p *pb) packed(field int, vs ...uint64) {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	p.bytesField(field, b)
}

func TestCPUSharesOnFixture(t *testing.T) {
	strs := []string{"", // index 0 must be the empty string
		"tell/internal/wire.(*Writer).Bytes", "tell/internal/store.(*Node).handle", "runtime.mallocgc",
		"tell/internal/sanitize.(*Mutex).Lock", "tell/internal/resil.(*Window).Commit", "runtime.gcBgMarkWorker",
		"runtime.schedule", "main.(*driver).exec", "tell/internal/trace.(*Recorder).Span", "tell/internal/sim.(*Kernel).dispatch"}
	var prof pb
	for i, s := range strs {
		if i > 0 {
			var fn pb
			fn.varint(1, uint64(i)) // function id == string index
			fn.varint(2, uint64(i))
			prof.bytesField(5, fn.Bytes())
			var line, loc pb
			line.varint(1, uint64(i))
			loc.varint(1, uint64(i)) // location id == function id
			loc.bytesField(4, line.Bytes())
			prof.bytesField(4, loc.Bytes())
		}
		prof.bytesField(6, []byte(s))
	}
	// Location 11 holds two lines: wire inlined into store (innermost first).
	var l1, l2, loc pb
	l1.varint(1, 1)
	l2.varint(1, 2)
	loc.varint(1, 11)
	loc.bytesField(4, l1.Bytes())
	loc.bytesField(4, l2.Bytes())
	prof.bytesField(4, loc.Bytes())
	sample := func(weight uint64, locs ...uint64) {
		var s pb
		s.packed(1, locs...)
		s.packed(2, 1, weight) // [samples, cpu ns]
		prof.bytesField(2, s.Bytes())
	}
	sample(30, 3, 1, 2)  // malloc under wire under store -> wire
	sample(20, 4, 5, 2)  // sanitize is skipped -> resil
	sample(10, 6)        // collector
	sample(10, 7, 8)     // scheduler under the benchmark -> runtime.other
	sample(10, 9, 10)    // trace -> telemetry
	sample(10, 11)       // inlined: wire is innermost
	sample(10, 3, 7, 10) // runtime frames, then sim
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()

	got, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wire": 0.4, "resil": 0.2, "runtime.gc": 0.1, "runtime.other": 0.1, "telemetry": 0.1, "sim": 0.1}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-9 {
			t.Errorf("share of %s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if len(got) != len(want) {
		t.Errorf("buckets %v, want %v", got, want)
	}
	if _, err := cpuShares(gz.Bytes()[:gz.Len()/2]); err == nil {
		t.Error("a truncated profile parsed without error")
	}
}

// The store and commit-manager clients type-assert TransferTimer on their
// conns; a decorator that hid it would silently zero the network component.
func TestLedgerForwardsTransferTimer(t *testing.T) {
	k := sim.NewKernel(1)
	envr := env.NewSim(k)
	node := envr.NewNode("n", 1)
	l := newLedger(transport.NewSimNet(k, transport.Ethernet10G()), nil)
	c, err := l.Dial(node, "sn0")
	if err != nil {
		t.Fatal(err)
	}
	tt, ok := c.(transport.TransferTimer)
	if !ok {
		t.Fatal("the ledger hides the simulated conn's TransferTimer")
	}
	if got, want := tt.TransferTime(1100), transport.Ethernet10G().TransferTime(1100); got != want {
		t.Fatalf("TransferTime %v, want %v", got, want)
	}
	plain := newLedger(plainNet{}, nil)
	if c, _ := plain.Dial(node, "x"); c == nil {
		t.Fatal("no conn")
	} else if _, ok := c.(transport.TransferTimer); ok {
		t.Fatal("the ledger invents a TransferTimer the wrapped conn does not have")
	}
}

type plainNet struct{}

func (plainNet) Listen(string, env.Node, transport.Handler) error { return nil }
func (plainNet) Dial(env.Node, string) (transport.Conn, error)    { return plainConn{}, nil }

type plainConn struct{}

func (plainConn) RoundTrip(env.Ctx, []byte) ([]byte, error) { return nil, nil }
func (plainConn) Close() error                              { return nil }

func TestOutputSchema(t *testing.T) {
	for _, traced := range []bool{false, true} {
		rep := &report{Trace: traced, Attempted: 10, Metrics: map[string]value{}}
		for i, s := range specFor(traced) {
			rep.Metrics[s.Name] = value{Value: float64(i) + 0.5, Unit: s.Unit}
		}
		var out bytes.Buffer
		if err := printResult(&out, rep); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var last map[string]json.RawMessage
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatal(err)
		}
		var keys []string
		for k := range last {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !reflect.DeepEqual(keys, []string{"attempted", "correct", "failed", "metrics"}) {
			t.Fatalf("result keys %v", keys)
		}
		var metrics map[string]map[string]any
		if err := json.Unmarshal(last["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		if len(metrics) != len(specFor(traced)) {
			t.Fatalf("%d metrics printed, spec has %d", len(metrics), len(specFor(traced)))
		}
		for _, s := range specFor(traced) {
			m := metrics[s.Name]
			if len(m) != 2 || m["unit"] != s.Unit || m["value"] == nil {
				t.Fatalf("metric %s printed as %v", s.Name, m)
			}
		}
	}
}

// BENCHMARK.json is generated by `bench spec`; it must not drift from the
// tables the program reports from, and must stay inside the contract's limits.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := writeSpec(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, want.Bytes()) {
		t.Fatal("BENCHMARK.json differs from `bench spec`; regenerate it")
	}
	if n := len(endToEndSpecs()); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics", n)
	}
	if n := len(perLayerSpecs()); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics", n)
	}
	seen := map[string]bool{}
	var maxBound float64
	for _, s := range append(endToEndSpecs(), perLayerSpecs()...) {
		if seen[s.Name] || len(s.Name) > 64 || len(s.Unit) > 16 || s.Bound > 0.25 {
			t.Errorf("bad or repeated metric %+v", s)
		}
		seen[s.Name] = true
		maxBound = math.Max(maxBound, s.Bound)
	}
	if s := endToEndSpecs()[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != lower || s.Bound != maxBound {
		t.Errorf("setup_s must be a lower-is-better time in s with the largest bound, got %+v", s)
	}
}

func TestJudge(t *testing.T) {
	lat := metricSpec{Name: "x_ms", Better: lower, Bound: 0.10}
	tput := metricSpec{Name: "tpmc", Better: higher, Bound: 0.03}
	sum := func(med, min, max float64) summary { return summary{Median: med, Min: min, Max: max} }
	for _, c := range []struct {
		spec metricSpec
		a, b summary
		want string
	}{
		{lat, sum(10, 10, 10), sum(10, 10, 10), verdictWithin},
		{lat, sum(10, 9.9, 10.1), sum(10.5, 10.4, 10.6), verdictWithin},
		{lat, sum(10, 9.9, 10.1), sum(11.5, 11.4, 11.6), verdictWorse},
		{lat, sum(10, 9.9, 10.1), sum(9, 8.9, 9.1), verdictBetter},
		{lat, sum(10, 9, 11), sum(10.2, 9, 11), verdictUnresolved},
		{tput, sum(100, 100, 100), sum(96, 96, 96), verdictWorse},
		{tput, sum(100, 100, 100), sum(104, 104, 104), verdictBetter},
		{tput, sum(100, 99.5, 100.5), sum(99, 98.5, 99.5), verdictWithin},
	} {
		if got, _ := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}
}

// smoke shrinks a workload to 2 warehouses and about 150 transactions.
func smoke(w workload) workload {
	w.warehouses = 2
	stages := append([]stage(nil), w.stages...)
	for i := range stages {
		stages[i].warmup, stages[i].measure = 4, 150/len(stages)
	}
	w.stages = stages
	return w
}

// virtualMetrics are the end-to-end metrics on the simulated clock.
func virtualMetrics(rep *report) map[string]float64 {
	out := map[string]float64{}
	for name, v := range rep.Metrics {
		if !strings.HasPrefix(name, "host_") && name != "setup_s" && name != "peak_rss_mb" {
			out[name] = v.Value
		}
	}
	return out
}

func TestSmokeSameSeedSameVirtualMetrics(t *testing.T) {
	for _, w := range workloads() {
		w := smoke(w)
		var reps [2]*report
		for i := range reps {
			m, err := measure(w, 5, 1, false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			reps[i] = &report{Metrics: map[string]value{}, Tails: map[string]tail{}}
			if err := endToEnd(reps[i], m, []float64{m.d.setup.Seconds()}); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if err := fillUnits(reps[i]); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
		a, b := virtualMetrics(reps[0]), virtualMetrics(reps[1])
		if len(a) < 8 || !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of seed 5 differ on the virtual clock:\n%v\n%v", w.name, a, b)
		}
		for name, v := range reps[0].Metrics {
			if v.Value <= 0 || math.IsNaN(v.Value) {
				t.Errorf("%s: %s = %v; end-to-end metrics must never be 0", w.name, name, v.Value)
			}
		}
	}
}

// The traced pass must see the same virtual schedule as the untraced run, its
// ledger must add up to the network's own totals, and the history must check
// out (measure's gate asserts the last two).
func TestSmokeTracedPassIsVirtualClockNeutral(t *testing.T) {
	w, err := findWorkload("tpcc-eth-rf3-wal")
	if err != nil {
		t.Fatal(err)
	}
	w = smoke(w)
	base, err := measure(w, 5, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := measure(w, 5, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameVirtual(base, tr); err != nil {
		t.Fatal(err)
	}
	k := tr.d.ledger.kinds
	if k[kindStore].msgs == 0 || k[kindReplicate].msgs == 0 || k[kindCM].msgs == 0 || k[kindReplicate].handled == 0 {
		t.Fatalf("ledger missed a kind: %+v", k)
	}
	if len(tr.d.ledger.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	shares, err := cpuShares(tr.profile)
	if err != nil {
		t.Fatalf("the run's own CPU profile does not parse: %v", err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("CPU shares sum to %v", sum)
	}
	var buf bytes.Buffer
	if err := tr.d.ledger.writeSpans(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) < len(tr.d.ledger.spans) {
		t.Fatalf("span file is not loadable trace_event JSON: %v (%d events)", err, len(doc.TraceEvents))
	}
}

func TestSeedZeroIsNotSeed42(t *testing.T) {
	if tpccSeed(0) == 0 || tpccSeed(0) == 42 || tpccSeed(42) != 42 {
		t.Fatal("seed mapping collides")
	}
}
