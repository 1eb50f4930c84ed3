package exp

import (
	"fmt"
	"strings"
	"testing"

	"tell/internal/testutil"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// quickOpt keeps unit-test experiment runs small.
func quickOpt() Options {
	return Options{Warehouses: 4, Scale: 0.02, Warmup: 20, Measure: 250, Seed: 7}
}

func TestRunTellSmoke(t *testing.T) {
	run, err := RunTell(quickOpt(), TellParams{PNs: 2, SNs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.TpmC() <= 0 {
		t.Fatalf("TpmC = %v", run.Result.TpmC())
	}
	if run.BatchFactor < 1 {
		t.Fatalf("batch factor %v", run.BatchFactor)
	}
	if run.NetRequests == 0 || run.NetBytes == 0 {
		t.Fatal("no network traffic recorded")
	}
}

func TestRunTellScalesWithPNs(t *testing.T) {
	opt := quickOpt()
	opt.Warehouses = 8
	one, err := RunTell(opt, TellParams{PNs: 1, SNs: 3})
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunTell(opt, TellParams{PNs: 4, SNs: 3})
	if err != nil {
		t.Fatal(err)
	}
	if four.Result.TpmC() < 1.5*one.Result.TpmC() {
		t.Fatalf("no scale-out: 1 PN %.0f vs 4 PNs %.0f TpmC",
			one.Result.TpmC(), four.Result.TpmC())
	}
	t.Logf("1 PN: %.0f TpmC, 4 PNs: %.0f TpmC", one.Result.TpmC(), four.Result.TpmC())
}

// RF3 costs about 4 % of tpmC here, less than 250 measured transactions
// resolve from one seed; 2,000 resolve it (about 7 s wall for both runs on
// a 2-core host).
func TestReplicationCostsThroughput(t *testing.T) {
	opt := quickOpt()
	opt.Measure = 2000
	rf1, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	rf3, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, ReplicationFactor: 3})
	if err != nil {
		t.Fatal(err)
	}
	if rf3.Result.TpmC() >= rf1.Result.TpmC() {
		t.Fatalf("RF3 (%.0f) should cost throughput vs RF1 (%.0f)",
			rf3.Result.TpmC(), rf1.Result.TpmC())
	}
	t.Logf("RF1 %.0f vs RF3 %.0f TpmC", rf1.Result.TpmC(), rf3.Result.TpmC())
}

func TestEthernetSlowerThanInfiniBand(t *testing.T) {
	opt := quickOpt()
	ib, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, Network: transport.InfiniBand()})
	if err != nil {
		t.Fatal(err)
	}
	eth, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, Network: transport.Ethernet10G()})
	if err != nil {
		t.Fatal(err)
	}
	if ib.Result.TpmC() < 2*eth.Result.TpmC() {
		t.Fatalf("InfiniBand %.0f vs Ethernet %.0f: expected a clear gap",
			ib.Result.TpmC(), eth.Result.TpmC())
	}
	t.Logf("IB %.0f vs Eth %.0f TpmC (%.1f×)", ib.Result.TpmC(), eth.Result.TpmC(),
		ib.Result.TpmC()/eth.Result.TpmC())
}

func TestRunBaselineSmoke(t *testing.T) {
	opt := quickOpt()
	for _, kind := range []BaselineKind{Voltlike, NDBlike, FDBlike} {
		res, err := RunBaseline(opt, BaselineParams{Kind: kind, Nodes: 2})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if res.TotalCommitted() == 0 {
			t.Fatalf("%v: nothing committed", kind)
		}
	}
}

func TestGranularityAblation(t *testing.T) {
	tbl, err := AblationGranularity(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	out := tbl.String()
	if !strings.Contains(out, "record") || !strings.Contains(out, "page") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Header: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Note("hello %d", 42)
	s := tbl.String()
	for _, want := range []string{"== x — t ==", "a", "bb", "hello 42"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %q in:\n%s", want, s)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"table3", "table4", "table5", "sec631", "sec633", "breakdown"} {
		if reg[id] == nil {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
	if len(Names()) != len(reg) {
		t.Fatal("Names() incomplete")
	}
}

func TestMixDefinitionsMatchTable2(t *testing.T) {
	std := tpcc.StandardMix()
	if std.Pct[tpcc.TxNewOrder] != 45 || std.Pct[tpcc.TxPayment] != 43 {
		t.Fatalf("standard mix: %+v", std.Pct)
	}
	ri := tpcc.ReadIntensiveMix()
	if ri.Pct[tpcc.TxOrderStatus] != 84 || ri.Pct[tpcc.TxStockLevel] != 7 || ri.Pct[tpcc.TxNewOrder] != 9 {
		t.Fatalf("read-intensive mix: %+v", ri.Pct)
	}
	sum := 0
	for _, p := range ri.Pct {
		sum += p
	}
	if sum != 100 {
		t.Fatalf("read mix sums to %d", sum)
	}
}

// TestDeterministicRuns: the whole stack on the simulator is deterministic
// — same seed, same virtual cluster, bit-identical results. This is the
// end-to-end canary for stray map-iteration or wall-clock dependencies.
func TestDeterministicRuns(t *testing.T) {
	opt := quickOpt()
	a, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTell(opt, TellParams{PNs: 2, SNs: 3, ReplicationFactor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.TpmC() != b.Result.TpmC() {
		t.Fatalf("TpmC diverged: %v != %v", a.Result.TpmC(), b.Result.TpmC())
	}
	if a.Result.Elapsed != b.Result.Elapsed {
		t.Fatalf("elapsed diverged: %v != %v", a.Result.Elapsed, b.Result.Elapsed)
	}
	if a.NetRequests != b.NetRequests {
		t.Fatalf("request counts diverged: %d != %d", a.NetRequests, b.NetRequests)
	}
}

// TestByteIdenticalSummary is the strict form of TestDeterministicRuns:
// the fully rendered run summary — every formatted metric, latency
// percentiles included — must be byte-for-byte identical across two runs
// with the same seed. Any surviving map-order, wall-clock or global-rand
// dependency shows up here even when the headline numbers happen to agree.
func TestByteIdenticalSummary(t *testing.T) {
	opt := quickOpt()
	opt.Seed = testutil.Seed(t, 7)
	render := func(run *TellRun) string {
		return fmt.Sprintf("%v net=%d req, %d bytes batch=%.4f abort=%.6f",
			run.Result, run.NetRequests, run.NetBytes, run.BatchFactor, run.AbortRate)
	}
	params := TellParams{PNs: 2, SNs: 3, CMs: 2, ReplicationFactor: 2}
	a, err := RunTell(opt, params)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTell(opt, params)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := render(a), render(b); sa != sb {
		t.Fatalf("summaries diverged for seed %d:\n  %s\n  %s", opt.Seed, sa, sb)
	}
}

func TestExtPushdown(t *testing.T) {
	tbl, err := ExtPushdown(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows: %v", tbl.Rows)
	}
	// Both strategies returned the same row count (column 1).
	if tbl.Rows[0][1] != tbl.Rows[1][1] {
		t.Fatalf("result mismatch: %v", tbl.Rows)
	}
	t.Logf("\n%s", tbl)
}

func TestInterleavedTidsRun(t *testing.T) {
	run, err := RunTell(quickOpt(), TellParams{PNs: 2, SNs: 3, CMs: 2, InterleavedTids: true})
	if err != nil {
		t.Fatal(err)
	}
	if run.Result.TpmC() <= 0 {
		t.Fatalf("TpmC = %v", run.Result.TpmC())
	}
}
