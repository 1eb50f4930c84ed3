package main

import (
	"fmt"
	"strings"
	"time"

	"tell/internal/tpcc"
	"tell/internal/trace"
)

// Latency components of the engine's per-transaction breakdown, as
// <layer>.<component>_ms.<class> metrics.
var compMetrics = [trace.NComps]string{
	trace.CompService:  "core.service_ms",
	trace.CompCoreWait: "core.corewait_ms",
	trace.CompPoolWait: "core.queuewait_ms",
	trace.CompNetwork:  "transport.network_ms",
	trace.CompRemote:   "store.remote_ms",
	trace.CompConflict: "mvcc.conflict_ms",
	trace.CompRetry:    "resil.retry_ms",
}

// perLayerSpecs names every metric a traced run reports. Workload-specific
// user-visible metrics (a class the mix does not issue, the open-loop SLO
// rate) live here too, because an end-to-end metric must exist, non-zero, on
// every workload; where one does not apply it reads 0.
func perLayerSpecs() []metricSpec {
	var s []metricSpec
	add := func(name, unit, better string) { s = append(s, metricSpec{Name: name, Unit: unit, Better: better}) }

	add("abort_rate", "ratio", lower)
	add("neworder_p99_ms", "ms", lower)
	add("payment_p99_ms", "ms", lower)
	add("orderstatus_p99_ms", "ms", lower)
	add("delivery_p50_ms", "ms", lower)
	add("max_rate_under_slo", "1/s", higher)

	for _, m := range compMetrics {
		for _, c := range classNames {
			add(m+"."+c, "ms", lower)
		}
	}
	add("core.pn_util", "ratio", lower)
	add("store.sn_util", "ratio", lower)
	add("commitmgr.cm_util", "ratio", lower)
	add("core.jobqueue_depth", "count", lower)
	add("core.useful_txn_ratio", "ratio", higher)
	add("core.sb_hit_ratio", "ratio", higher)

	add("transport.msgs_per_txn", "count", lower)
	add("transport.bytes_per_txn", "B", lower)
	for _, k := range kindNames[:kindOther] {
		add("transport.msgs_per_txn."+k, "count", lower)
		add("transport.bytes_per_txn."+k, "B", lower)
		add("transport.rtt_us."+k, "us", lower)
		add("transport.handler_us."+k, "us", lower)
	}

	add("store.batch_factor", "count", higher)
	add("store.gets_per_txn", "count", lower)
	add("store.writes_per_txn", "count", lower)
	add("store.scans_per_txn", "count", lower)
	add("store.replays", "count", lower)
	add("store.sheds", "count", lower)
	add("durable.wal_commits_per_txn", "count", lower)
	add("durable.wal_records_per_commit", "count", higher)
	add("durable.checkpoints", "count", lower)
	add("commitmgr.msgs_per_txn", "count", lower)
	add("commitmgr.starts_per_msg", "count", higher)
	add("resil.retries_per_txn", "count", lower)

	for _, b := range cpuBuckets {
		add("host.cpu_share."+b, "ratio", lower)
	}
	add("host.alloc_kb_per_txn", "kB", lower)
	add("host.gc_cycles", "count", lower)
	add("trace.host_overhead_pct", "%", lower)

	for _, p := range probeNames {
		add(p+"_ns", "ns", lower)
		add(p+"_allocs", "count", lower)
	}
	for _, r := range ladderRates {
		add(fmt.Sprintf("driver.open.r%d.neworder_p95_ms", r), "ms", lower)
	}
	add("driver.open.lateness_us", "us", lower)
	return s
}

// maxRateUnderSLO is the highest ladder rate whose new-order p95 from due
// time is within sloLimit and whose second-half p95 is at most 1.5x its
// first-half p95 (a backlog that keeps growing would pass a short stage on
// its early transactions alone). 0 when no stage qualifies.
func maxRateUnderSLO(stages []*stageResult) float64 {
	best := 0.0
	for _, r := range stages {
		p95 := quantile(r.lat[tpcc.TxNewOrder], 0.95)
		h0 := quantile(r.halves[0], 0.95)
		h1 := quantile(r.halves[1], 0.95)
		if r.stage.rate > best && p95 > 0 && p95 <= sloLimit && 2*h1 <= 3*h0 {
			best = r.stage.rate
		}
	}
	return best
}

// perLayer fills the per-layer table from the untraced (base) and traced
// (tr) measurement of one seed and the probes' results.
func perLayer(rep *report, base, tr *measurement, probes map[string]probeResult) error {
	set := rep.set
	d, r := tr.d, tr.ref()
	txns := float64(tr.hostTxns)
	perTxn := func(name string, delta uint64) { set(name, ratio(float64(delta), txns), tr.hostTxns) }

	// User-visible numbers that only some workloads have.
	set("abort_rate", 1-ratio(float64(r.totalCommitted()), float64(r.issued)), r.issued)
	for _, x := range []struct {
		t tpcc.TxType
		p float64
	}{{tpcc.TxNewOrder, 0.99}, {tpcc.TxPayment, 0.99}, {tpcc.TxOrderStatus, 0.99}, {tpcc.TxDelivery, 0.5}} {
		classLatency(rep, r, x.t, x.p)
	}
	set("max_rate_under_slo", 0, 0)
	set("driver.open.lateness_us", 0, 0)
	for _, rate := range ladderRates {
		set(fmt.Sprintf("driver.open.r%d.neworder_p95_ms", rate), 0, 0)
	}
	if r.stage.rate > 0 {
		set("max_rate_under_slo", maxRateUnderSLO(tr.stages), uint64(len(tr.stages)))
		var late time.Duration
		var arrivals uint64
		for _, s := range tr.stages {
			lat := s.lat[tpcc.TxNewOrder]
			set(fmt.Sprintf("driver.open.r%d.neworder_p95_ms", int(s.stage.rate)), ms(quantile(lat, 0.95)), uint64(len(lat)))
			late += s.latenessSum
			arrivals += s.arrivals
		}
		set("driver.open.lateness_us", ratio(usec(late), float64(arrivals)), arrivals)
	}

	// The engine's latency breakdown, mean per measured transaction.
	for c, m := range compMetrics {
		for t, class := range classNames {
			set(m+"."+class, ratio(ms(r.comp[t][c]), float64(r.compCount[t])), r.compCount[t])
		}
	}

	// Node utilisation and queue depth from the engine's event log.
	if dropped := d.rec.Dropped(); dropped > 0 {
		return fmt.Errorf("trace buffer overflowed (%d events dropped): utilisation would be wrong", dropped)
	}
	util := map[string][]float64{}
	for _, u := range d.rec.MeanUtilization() {
		role := strings.TrimRight(u.Node, "0123456789")
		util[role] = append(util[role], u.Points[0].V)
	}
	mean := func(v []float64) float64 {
		var s float64
		for _, x := range v {
			s += x
		}
		return ratio(s, float64(len(v)))
	}
	set("core.pn_util", mean(util["pn"]), uint64(len(util["pn"])))
	set("store.sn_util", mean(util["sn"]), uint64(len(util["sn"])))
	set("commitmgr.cm_util", mean(util["cm"]), uint64(len(util["cm"])))
	var depth, samples float64
	for _, e := range d.rec.Events() {
		if e.Kind == trace.KindCounter && e.Name == "jobqueue" {
			depth += float64(e.Arg1)
			samples++
		}
	}
	set("core.jobqueue_depth", ratio(depth, samples), uint64(samples))
	a, b := tr.after, tr.before
	commits, aborts := a.pnCommits-b.pnCommits, a.pnAbort-b.pnAbort
	set("core.useful_txn_ratio", ratio(float64(commits), float64(commits+aborts)), commits+aborts)
	var sb float64
	for _, pn := range d.pns {
		sb += pn.SharedBufferHitRatio()
	}
	set("core.sb_hit_ratio", sb/float64(len(d.pns)), 0)

	// Message ledger, per transaction of the host window.
	var msgs, bytes uint64
	for k := range kindNames {
		ka, kb := a.kinds[k], b.kinds[k]
		n, by := ka.msgs-kb.msgs, ka.bytesOut-kb.bytesOut+ka.bytesIn-kb.bytesIn
		msgs, bytes = msgs+n, bytes+by
		if k == kindOther {
			continue
		}
		name := kindNames[k]
		perTxn("transport.msgs_per_txn."+name, n)
		perTxn("transport.bytes_per_txn."+name, by)
		set("transport.rtt_us."+name, ratio(usec(ka.rtt-kb.rtt), float64(n)), n)
		set("transport.handler_us."+name, ratio(usec(ka.handler-kb.handler), float64(ka.handled-kb.handled)), ka.handled-kb.handled)
	}
	perTxn("transport.msgs_per_txn", msgs)
	perTxn("transport.bytes_per_txn", bytes)

	// Layer counters.
	set("store.batch_factor", ratio(float64(a.storeOps-b.storeOps), float64(a.batches-b.batches)), a.batches-b.batches)
	perTxn("store.gets_per_txn", a.gets-b.gets)
	perTxn("store.writes_per_txn", a.writes-b.writes)
	perTxn("store.scans_per_txn", a.scans-b.scans)
	var replays, sheds, ckpts uint64
	for _, addr := range d.cluster.Addrs() {
		sn := d.cluster.Node(addr)
		replays += sn.Replays()
		sheds += sn.Sheds()
		_, _, c := sn.DurStats()
		ckpts += c
	}
	set("store.replays", float64(replays), 0)
	set("store.sheds", float64(sheds), 0)
	set("durable.checkpoints", float64(ckpts), 0)
	perTxn("durable.wal_commits_per_txn", a.walCommits-b.walCommits)
	set("durable.wal_records_per_commit", ratio(float64(a.walRec-b.walRec), float64(a.walCommits-b.walCommits)), a.walCommits-b.walCommits)
	perTxn("commitmgr.msgs_per_txn", a.cmMsgs-b.cmMsgs)
	set("commitmgr.starts_per_msg", ratio(float64(a.cmStarts-b.cmStarts), float64(a.cmMsgs-b.cmMsgs)), a.cmMsgs-b.cmMsgs)
	perTxn("resil.retries_per_txn", a.retries-b.retries)

	// Host side: where the CPU went, what was allocated, what tracing cost.
	shares, err := cpuShares(tr.profile)
	if err != nil {
		return err
	}
	for _, bucket := range cpuBuckets {
		set("host.cpu_share."+bucket, shares[bucket], 0)
	}
	// Allocation figures from the untraced run: the traced one allocates
	// for the event log as well.
	set("host.alloc_kb_per_txn", ratio(float64(base.after.allocated-base.before.allocated)/1024, float64(base.hostTxns)), base.hostTxns)
	set("host.gc_cycles", float64(base.after.gcCycles-base.before.gcCycles), 0)
	set("trace.host_overhead_pct", 100*(ratio(tr.hostUsPerTxn(), base.hostUsPerTxn())-1), tr.hostTxns)

	for name, p := range probes {
		set(name+"_ns", p.ns, 0)
		set(name+"_allocs", p.allocs, 0)
	}
	return nil
}
