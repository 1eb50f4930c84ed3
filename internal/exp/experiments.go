package exp

import (
	"fmt"
	"sort"
	"time"

	"tell/internal/core"
	"tell/internal/metrics"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// pnSweep is the processing-node axis of the scale-out figures.
var pnSweep = []int{1, 2, 4, 6, 8}

// Fig5 — scale-out of the processing layer under the write-intensive
// standard mix, for replication factors 1, 2 and 3 (Figure 5).
func Fig5(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Scale-out processing (write-intensive), TpmC by #PNs and RF",
		Header: []string{"PNs", "RF1 TpmC", "RF2 TpmC", "RF3 TpmC", "RF1 abort", "RF3 abort"},
	}
	for _, pns := range pnSweep {
		cells := []string{fmt.Sprint(pns)}
		var aborts []float64
		for _, rf := range []int{1, 2, 3} {
			run, err := RunTell(opt, TellParams{PNs: pns, SNs: 7, ReplicationFactor: rf})
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(run.Result.TpmC()))
			if rf != 2 {
				aborts = append(aborts, run.AbortRate)
			}
		}
		cells = append(cells, pct(aborts[0]), pct(aborts[1]))
		t.AddRow(cells...)
	}
	t.Note("paper: RF1 143,114→958,187 TpmC (1→8 PNs); RF3 ≈63%% below RF1 at 8 PNs; abort 2.91%%→14.72%%")
	return t, nil
}

// Fig6 — scale-out under the read-intensive mix (Figure 6).
func Fig6(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Scale-out processing (read-intensive), Tps by #PNs and RF",
		Header: []string{"PNs", "RF1 Tps", "RF2 Tps", "RF3 Tps"},
	}
	for _, pns := range pnSweep {
		cells := []string{fmt.Sprint(pns)}
		for _, rf := range []int{1, 2, 3} {
			run, err := RunTell(opt, TellParams{
				PNs: pns, SNs: 7, ReplicationFactor: rf, Mix: tpcc.ReadIntensiveMix(),
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(run.Result.Tps()))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: replication costs only 25.7%% at RF3/8PNs under reads (vs 63%% write-intensive)")
	return t, nil
}

// Fig7 — scale-out of the storage layer (Figure 7): the SN count barely
// matters while storage is not the bottleneck.
func Fig7(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Scale-out storage (write-intensive, RF3), TpmC by #PNs and #SNs",
		Header: []string{"PNs", "3 SNs", "5 SNs", "7 SNs"},
	}
	for _, pns := range pnSweep {
		cells := []string{fmt.Sprint(pns)}
		for _, sns := range []int{3, 5, 7} {
			run, err := RunTell(opt, TellParams{PNs: pns, SNs: sns, ReplicationFactor: 3})
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(run.Result.TpmC()))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: throughput difference across 3/5/7 SNs is minimal; memory capacity, not CPU, sizes the storage layer")
	return t, nil
}

// Table3 — commit managers are not a bottleneck (Table 3).
func Table3(opt Options) (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Commit managers (write-intensive, 8 PNs, 7 SNs, RF1)",
		Header: []string{"CMs", "TpmC", "abort rate"},
	}
	for _, cms := range []int{1, 2, 4} {
		run, err := RunTell(opt, TellParams{PNs: 8, SNs: 7, CMs: cms})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(cms), f0(run.Result.TpmC()), pct(run.AbortRate))
	}
	t.Note("paper: no significant impact of the CM count on throughput or abort rate")
	return t, nil
}

// tellLadder is the Tell configuration ladder of Figures 8/9 (by cores).
var tellLadder = []TellParams{
	{PNs: 1, SNs: 3, CMs: 2},
	{PNs: 2, SNs: 4, CMs: 2},
	{PNs: 4, SNs: 5, CMs: 2},
	{PNs: 6, SNs: 6, CMs: 2},
	{PNs: 8, SNs: 7, CMs: 2},
	{PNs: 10, SNs: 7, CMs: 2},
}

// Fig8 — Tell vs the partitioned systems and the shared-data baseline on
// the standard mix with RF3 (Figure 8), by total cores.
func Fig8(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "Throughput (TPC-C standard, RF3), TpmC by total cores",
		Header: []string{"system", "cores", "TpmC"},
	}
	for _, p := range tellLadder {
		p.ReplicationFactor = 3
		run, err := RunTell(opt, p)
		if err != nil {
			return nil, err
		}
		t.AddRow("Tell", fmt.Sprint(p.Cores()), f0(run.Result.TpmC()))
	}
	for _, kind := range []BaselineKind{Voltlike, NDBlike, FDBlike} {
		for _, nodes := range []int{3, 6, 9} {
			res, err := RunBaseline(opt, BaselineParams{
				Kind: kind, Nodes: nodes, ReplicationFactor: 3,
			})
			if err != nil {
				return nil, err
			}
			p := BaselineParams{Kind: kind, Nodes: nodes}
			t.AddRow(kind.String(), fmt.Sprint(p.Cores()), f0(res.TpmC()))
		}
	}
	t.Note("paper: Tell 374,894 TpmC at 78 cores vs MySQL Cluster 83,524 and VoltDB 23,183; FoundationDB ≈30× below Tell")
	return t, nil
}

// Fig9 — the perfectly shardable TPC-C variant (Figure 9): VoltDB-style
// now scales and edges out Tell; Tell stays in the same ballpark.
func Fig9(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Throughput (TPC-C shardable), TpmC by total cores and RF",
		Header: []string{"system", "cores", "RF1 TpmC", "RF3 TpmC"},
	}
	for _, p := range tellLadder {
		p.Mix = tpcc.ShardableMix()
		p.ReplicationFactor = 1
		r1, err := RunTell(opt, p)
		if err != nil {
			return nil, err
		}
		p.ReplicationFactor = 3
		r3, err := RunTell(opt, p)
		if err != nil {
			return nil, err
		}
		t.AddRow("Tell", fmt.Sprint(p.Cores()), f0(r1.Result.TpmC()), f0(r3.Result.TpmC()))
	}
	for _, kind := range []BaselineKind{Voltlike, NDBlike} {
		for _, nodes := range []int{3, 6, 9} {
			var tpmc []string
			for _, rf := range []int{1, 3} {
				res, err := RunBaseline(opt, BaselineParams{
					Kind: kind, Nodes: nodes, ReplicationFactor: rf, Mix: tpcc.ShardableMix(),
				})
				if err != nil {
					return nil, err
				}
				tpmc = append(tpmc, f0(res.TpmC()))
			}
			p := BaselineParams{Kind: kind, Nodes: nodes}
			t.AddRow(kind.String(), fmt.Sprint(p.Cores()), tpmc[0], tpmc[1])
		}
	}
	t.Note("paper: VoltDB peaks at 1.77M TpmC (RF1); Tell reaches 1.56M — 11.7%% less — on the shardable workload")
	return t, nil
}

// latencyRow renders a histogram like the paper's Table 4.
func latencyRow(h *metrics.Histogram) (mean, sigma string) {
	return ms(float64(h.Mean())), ms(float64(h.Stddev()))
}

// Table4 — transaction response times, small vs large configurations.
func Table4(opt Options) (*Table, error) {
	t := &Table{
		ID:     "table4",
		Title:  "TPC-C transaction response time (mean ± σ)",
		Header: []string{"workload", "system", "small mean", "small σ", "large mean", "large σ"},
	}
	type cfgPair struct {
		small, large TellParams
	}
	tells := cfgPair{
		small: TellParams{PNs: 1, SNs: 3, CMs: 2, ReplicationFactor: 3},
		large: TellParams{PNs: 10, SNs: 7, CMs: 2, ReplicationFactor: 3},
	}
	for _, mix := range []tpcc.Mix{tpcc.StandardMix(), tpcc.ShardableMix()} {
		p := tells
		p.small.Mix, p.large.Mix = mix, mix
		sm, err := RunTell(opt, p.small)
		if err != nil {
			return nil, err
		}
		lg, err := RunTell(opt, p.large)
		if err != nil {
			return nil, err
		}
		sMean, sSig := latencyRow(sm.Result.Latency.Total())
		lMean, lSig := latencyRow(lg.Result.Latency.Total())
		t.AddRow(mix.Name, "Tell", sMean, sSig, lMean, lSig)

		kinds := []BaselineKind{Voltlike, NDBlike, FDBlike}
		if mix.Shardable {
			kinds = []BaselineKind{Voltlike}
		}
		for _, kind := range kinds {
			smB, err := RunBaseline(opt, BaselineParams{Kind: kind, Nodes: 3, ReplicationFactor: 3, Mix: mix})
			if err != nil {
				return nil, err
			}
			lgB, err := RunBaseline(opt, BaselineParams{Kind: kind, Nodes: 9, ReplicationFactor: 3, Mix: mix})
			if err != nil {
				return nil, err
			}
			sMean, sSig := latencyRow(smB.Latency.Total())
			lMean, lSig := latencyRow(lgB.Latency.Total())
			t.AddRow(mix.Name, kind.String(), sMean, sSig, lMean, lSig)
		}
	}
	t.Note("paper (standard, small→large): Tell 14±10→57±41ms; MySQL 34±27→70±40ms; VoltDB 706±723→4493±1875ms; FDB 149±91→163±138ms")
	return t, nil
}

// Table5 — network latency comparison at 8 PNs (Table 5).
func Table5(opt Options) (*Table, error) {
	t := &Table{
		ID:     "table5",
		Title:  "Network latency (write-intensive, 8 PNs, 7 SNs, RF1)",
		Header: []string{"network", "TpmC", "mean", "σ", "TP99", "TP999"},
	}
	for _, nc := range []transport.NetworkClass{transport.InfiniBand(), transport.Ethernet10G()} {
		run, err := RunTell(opt, TellParams{PNs: 8, SNs: 7, Network: nc})
		if err != nil {
			return nil, err
		}
		h := run.Result.Latency.Total()
		t.AddRow(nc.Name, f0(run.Result.TpmC()),
			ms(float64(h.Mean())), ms(float64(h.Stddev())),
			ms(float64(h.Percentile(99))), ms(float64(h.Percentile(99.9))))
	}
	t.Note("paper: InfiniBand 958,187 TpmC at 14±10ms vs 10GbE 151,611 TpmC at 91±59ms — a >6× gap")
	return t, nil
}

// Fig10 — InfiniBand vs 10 GbE across the PN sweep (Figure 10).
func Fig10(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "Network (write-intensive, RF1, 7 SNs), TpmC by #PNs",
		Header: []string{"PNs", "InfiniBand", "10GbE", "ratio"},
	}
	for _, pns := range pnSweep {
		ib, err := RunTell(opt, TellParams{PNs: pns, SNs: 7, Network: transport.InfiniBand()})
		if err != nil {
			return nil, err
		}
		eth, err := RunTell(opt, TellParams{PNs: pns, SNs: 7, Network: transport.Ethernet10G()})
		if err != nil {
			return nil, err
		}
		ratio := 0.0
		if eth.Result.TpmC() > 0 {
			ratio = ib.Result.TpmC() / eth.Result.TpmC()
		}
		t.AddRow(fmt.Sprint(pns), f0(ib.Result.TpmC()), f0(eth.Result.TpmC()), f1(ratio))
	}
	t.Note("paper: InfiniBand more than 6× faster than Ethernet, independent of the PN count")
	return t, nil
}

// Fig11 — the buffering strategies (Figure 11): TB wins; SB's management
// overhead outweighs its hits; SBVS pays for version-set upkeep.
func Fig11(opt Options) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "Buffering strategies (write-intensive, RF1, 7 SNs), TpmC by #PNs",
		Header: []string{"PNs", "TB", "SB", "SBVS10", "SBVS1000"},
	}
	type strat struct {
		buffer core.BufferStrategy
		unit   int
	}
	strats := []strat{{core.TB, 0}, {core.SB, 0}, {core.SBVS, 10}, {core.SBVS, 1000}}
	for _, pns := range pnSweep {
		cells := []string{fmt.Sprint(pns)}
		for _, s := range strats {
			run, err := RunTell(opt, TellParams{
				PNs: pns, SNs: 7, Buffer: s.buffer, CacheUnitSize: s.unit,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, f0(run.Result.TpmC()))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: TB best throughout; SB hit ratio only 1.42%%; SBVS1000 hits 37.37%% but extra version-set writes cost more than they save")
	return t, nil
}

// Sec631 — contention: fewer warehouses raise the abort rate (§6.3.1).
func Sec631(opt Options) (*Table, error) {
	t := &Table{
		ID:     "sec631",
		Title:  "Contention (write-intensive, 8 PNs, 7 SNs, RF1), by warehouses",
		Header: []string{"warehouses", "TpmC", "abort rate"},
	}
	for _, wh := range []int{4, 8, 16, 32} {
		o := opt
		o.Warehouses = wh
		run, err := RunTell(o, TellParams{PNs: 8, SNs: 7})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(wh), f0(run.Result.TpmC()), pct(run.AbortRate))
	}
	t.Note("paper: at 10 WHs (vs 200) throughput drops only mildly while contention aborts rise")
	return t, nil
}

// Sec633 — the commit-manager synchronization interval (§6.3.3).
func Sec633(opt Options) (*Table, error) {
	t := &Table{
		ID:     "sec633",
		Title:  "CM sync interval (write-intensive, 4 PNs, 2 CMs, RF1)",
		Header: []string{"interval", "TpmC", "abort rate"},
	}
	for _, iv := range []time.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond, 16 * time.Millisecond} {
		run, err := RunTell(opt, TellParams{PNs: 4, SNs: 5, CMs: 2, SyncInterval: iv})
		if err != nil {
			return nil, err
		}
		t.AddRow(iv.String(), f0(run.Result.TpmC()), pct(run.AbortRate))
	}
	t.Note("paper: a 1ms interval causes no noticeable abort-rate increase")
	return t, nil
}

// AblationCoalesce — the commit-path message-coalescing ladder: grouped CM
// operations (finish piggybacking + shared descriptor fetches), delta-encoded
// snapshot descriptors, and adaptive store batching are enabled one at a
// time, then the adaptive batch window is swept. The headline column is CM
// round trips per committed transaction: the split protocol pays ≥ 2 (one
// start, one finished), the grouped protocol a fraction of that.
func AblationCoalesce(opt Options) (*Table, error) {
	t := &Table{
		ID:    "ablation-coalesce",
		Title: "Ablation: commit-path coalescing (write-intensive, 4 PNs, 2 CMs, RF1)",
		Header: []string{"config", "TpmC", "abort", "CM msgs/txn",
			"msgs/txn", "KB/txn"},
	}
	type step struct {
		label string
		p     TellParams
	}
	// A quarter of the one-way link latency: small enough against the
	// round trip that lingering gains messages without costing throughput.
	win := transport.InfiniBand().Latency / 4
	base := TellParams{PNs: 4, SNs: 5, CMs: 2, BatchWindow: win}
	steps := []step{
		{"all off (split CM, greedy batch)", TellParams{PNs: 4, SNs: 5, CMs: 2,
			NoCMCoalesce: true, NoDeltaSnapshots: true}},
		{"+grouped CM ops", TellParams{PNs: 4, SNs: 5, CMs: 2,
			NoDeltaSnapshots: true}},
		{"+delta snapshots", TellParams{PNs: 4, SNs: 5, CMs: 2}},
		{"+adaptive batching (all on)", base},
	}
	for _, s := range steps {
		run, err := RunTell(opt, s.p)
		if err != nil {
			return nil, err
		}
		t.AddRow(s.label, f0(run.Result.TpmC()), pct(run.AbortRate),
			f2(run.CMMsgsPerTxn), f1(run.MsgsPerTxn), f1(run.BytesPerTxn/1024))
	}
	// Batch-window sweep with everything on.
	for _, w := range []time.Duration{25 * time.Microsecond, 400 * time.Microsecond} {
		p := base
		p.BatchWindow = w
		run, err := RunTell(opt, p)
		if err != nil {
			return nil, err
		}
		t.AddRow("window "+w.String(), f0(run.Result.TpmC()), pct(run.AbortRate),
			f2(run.CMMsgsPerTxn), f1(run.MsgsPerTxn), f1(run.BytesPerTxn/1024))
	}
	t.Note("grouped CM ops fold finish() into the next start() and share descriptor fetches; target is CM msgs/txn < 2 with an unchanged abort rate")
	return t, nil
}

// AblationResilience — the RPC resilience layer under injected network
// faults: a sweep of drop/duplicate/delay rates on every message leg, with
// deadlines, deterministic retries, exactly-once dedup and overload
// shedding absorbing them below the engine. The headline claim: at 1% drop
// + 1% dup, goodput (committed transactions per second) stays within 10% of
// the fault-free baseline, and the retry schedule digest is reproducible
// from TELL_SEED alone.
func AblationResilience(opt Options) (*Table, error) {
	t := &Table{
		ID: "ablation-resilience",
		Title: "Ablation: RPC resilience under network faults " +
			"(write-intensive, 4 PNs, 2 CMs, RF2)",
		Header: []string{"faults", "Tps", "goodput", "p99", "retries/txn",
			"replays", "sheds", "retry hash"},
	}
	type step struct {
		label                string
		drop, dup, delayProb float64
	}
	steps := []step{
		{"none (baseline)", 0, 0, 0},
		{"0.5% drop", 0.005, 0, 0},
		{"1% drop", 0.01, 0, 0},
		{"1% dup", 0, 0.01, 0},
		{"1% drop + 1% dup", 0.01, 0.01, 0},
		{"1% drop + 1% dup + 5% delay", 0.01, 0.01, 0.05},
		{"2% drop + 2% dup", 0.02, 0.02, 0},
	}
	// The timeout sits just above the fabric's per-RPC p99 (~tens of µs on
	// the simulated InfiniBand) instead of a conservative multiple: a false
	// timeout is harmless — the retry carries the same idempotency token
	// and the server's dedup window replays the cached response — so the
	// cost of a dropped leg is one timeout plus one short backoff.
	base := TellParams{
		PNs: 4, SNs: 5, CMs: 2, ReplicationFactor: 2, Workers: 48,
		NetTimeout: 150 * time.Microsecond,
		MaxDelay:   100 * time.Microsecond,
	}
	var baseline float64
	for i, s := range steps {
		p := base
		p.DropProb, p.DupProb, p.DelayProb = s.drop, s.dup, s.delayProb
		run, err := RunTell(opt, p)
		if err != nil {
			return nil, err
		}
		if run.Anomalies > 0 {
			return nil, fmt.Errorf("ablation-resilience: %d snapshot-isolation anomalies under %q", run.Anomalies, s.label)
		}
		tps := run.Result.Tps()
		if i == 0 {
			baseline = tps
		}
		goodput := 1.0
		if baseline > 0 {
			goodput = tps / baseline
		}
		t.AddRow(s.label, f0(tps), pct(goodput),
			run.Result.Latency.Total().Percentile(99).String(),
			f2(run.RetriesPerTxn), fmt.Sprint(run.Replays),
			fmt.Sprint(run.Sheds), fmt.Sprintf("%016x", run.RetryHash))
	}
	t.Note("goodput is Tps relative to the fault-free baseline; 'replays' are dedup-window cache hits (a duplicate or retried write answered without re-executing); the retry hash is the merged digest of every client's retry schedule — identical across runs with the same TELL_SEED; every faulted run is checked by the offline SI history checker and had zero anomalies")
	return t, nil
}

// AblationTidRange — the tid allocation range size (§4.2).
func AblationTidRange(opt Options) (*Table, error) {
	t := &Table{
		ID:     "ablation-tidrange",
		Title:  "Ablation: tid range size (write-intensive, 4 PNs, 2 CMs, RF1)",
		Header: []string{"range", "TpmC", "abort rate"},
	}
	for _, r := range []int64{1, 16, 256, 4096} {
		run, err := RunTell(opt, TellParams{PNs: 4, SNs: 5, CMs: 2, TidRange: r})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprint(r), f0(run.Result.TpmC()), pct(run.AbortRate))
	}
	// The §4.2 future-work variant: interleaved allocation.
	run, err := RunTell(opt, TellParams{PNs: 4, SNs: 5, CMs: 2, TidRange: 256, InterleavedTids: true})
	if err != nil {
		return nil, err
	}
	t.AddRow("256 interleaved", f0(run.Result.TpmC()), pct(run.AbortRate))
	t.Note("range 1 makes every Begin bump the shared counter; large ranges delay base advancement; 'interleaved' is the §4.2 future-work scheme")
	return t, nil
}

// Registry maps experiment ids to their runners.
func Registry() map[string]func(Options) (*Table, error) {
	return map[string]func(Options) (*Table, error){
		"fig5":                 Fig5,
		"fig6":                 Fig6,
		"fig7":                 Fig7,
		"table3":               Table3,
		"fig8":                 Fig8,
		"fig9":                 Fig9,
		"table4":               Table4,
		"table5":               Table5,
		"fig10":                Fig10,
		"fig11":                Fig11,
		"sec631":               Sec631,
		"sec633":               Sec633,
		"ablation-coalesce":    AblationCoalesce,
		"ablation-resilience":  AblationResilience,
		"ablation-tidrange":    AblationTidRange,
		"ablation-granularity": AblationGranularity,
		"ext-pushdown":         ExtPushdown,
		"breakdown":            Breakdown,
		"recovery-scale":       RecoveryScale,
		"scaleout-skew":        ScaleoutSkew,
	}
}

// Names returns the experiment ids in stable order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
