package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/tpcc"
)

// setupReps is how many times a run assembles the cluster; setup_s is the
// median, because one assembly is a ~1 s measurement at the mercy of one GC
// cycle or one scheduler hiccup.
const setupReps = 3

// counters is a snapshot of every running total the per-layer table is
// derived from; two snapshots bracket the host window.
type counters struct {
	host               time.Time
	mallocs, allocated uint64
	gcCycles           uint32
	kinds              [nKinds]kindCounts
	storeOps, batches  uint64
	gets, writes       uint64
	scans              uint64
	walCommits, walRec uint64
	cmMsgs, cmStarts   uint64
	retries            uint64
	pnCommits, pnAbort uint64
}

func snapshot(d *deployment) counters {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	c := counters{mallocs: mem.Mallocs, allocated: mem.TotalAlloc, gcCycles: mem.NumGC}
	if d.ledger != nil {
		c.kinds = d.ledger.kinds
	}
	var retriers []*resil.Retrier
	for _, sc := range d.stores {
		c.storeOps += sc.Ops()
		c.batches += sc.Batches()
		retriers = append(retriers, sc.Resil)
	}
	for _, cmc := range d.cmcs {
		c.cmMsgs += cmc.Msgs()
		c.cmStarts += cmc.Started()
		retriers = append(retriers, cmc.Resil)
	}
	_, c.retries = resil.MergeSchedule(retriers)
	for _, addr := range d.cluster.Addrs() {
		sn := d.cluster.Node(addr)
		g, w, s := sn.OpStats()
		c.gets, c.writes, c.scans = c.gets+g, c.writes+w, c.scans+s
		wc, wr, _ := sn.DurStats()
		c.walCommits, c.walRec = c.walCommits+wc, c.walRec+wr
	}
	for _, pn := range d.pns {
		cm, ab := pn.Stats()
		c.pnCommits, c.pnAbort = c.pnCommits+cm, c.pnAbort+ab
	}
	// Last, so the snapshot's own work stays outside the host window.
	c.host = time.Now()
	return c
}

// measurement is one driven run of a workload on one fresh cluster.
type measurement struct {
	d             *deployment
	stages        []*stageResult
	before, after counters
	hostTxns      uint64
	profile       []byte // CPU profile of the host window (traced pass)
}

func (m *measurement) ref() *stageResult {
	for _, r := range m.stages {
		if r.stage.ref {
			return r
		}
	}
	panic("workload without a reference stage")
}

func (m *measurement) hostUsPerTxn() float64 {
	return ratio(usec(m.after.host.Sub(m.before.host)), float64(m.hostTxns))
}

// measure deploys w and drives its stages once.
func measure(w workload, seed int64, seconds int, traced bool) (*measurement, error) {
	m := &measurement{}
	var prof bytes.Buffer
	d, err := deploy(w, seed, traced, func(ctx env.Ctx, d *deployment) error {
		dr := newDriver(d, seed)
		var profErr error
		dr.onOpen = func() {
			if traced {
				profErr = pprof.StartCPUProfile(&prof)
			}
			m.before = snapshot(d)
		}
		dr.onClose = func() {
			m.after = snapshot(d)
			if traced && profErr == nil {
				pprof.StopCPUProfile()
			}
		}
		m.stages = dr.run(ctx, w.stages, seconds)
		m.hostTxns = dr.hostTxns
		return profErr
	})
	if err != nil {
		return nil, err
	}
	m.d, m.profile = d, prof.Bytes()
	return m, m.check()
}

// check is the correctness gate every run passes through.
func (m *measurement) check() error {
	for _, r := range m.stages {
		done := r.totalCommitted() + r.errored
		for _, a := range r.aborted {
			done += a
		}
		switch {
		case r.issued != uint64(r.stage.measure):
			return fmt.Errorf("stage at rate %v did not drain: %d of %d measured transactions finished", r.stage.rate, r.issued, r.stage.measure)
		case done != r.issued:
			return fmt.Errorf("stage at rate %v: issued %d != committed+aborted+errored %d", r.stage.rate, r.issued, done)
		case r.errored != 0:
			return fmt.Errorf("stage at rate %v: %d transactions failed with infrastructure errors", r.stage.rate, r.errored)
		}
	}
	d := m.d
	if d.hist != nil {
		if rep := d.hist.Check(); !rep.Ok() {
			return fmt.Errorf("snapshot-isolation check failed: %s", rep)
		}
	}
	if d.ledger != nil {
		msgs, out, in := d.ledger.totals()
		if st := d.net.Stats(); msgs != st.Requests || out != st.BytesSent || in != st.BytesRecv {
			return fmt.Errorf("ledger does not add up to the network's totals: %d msgs %d+%d bytes against %d msgs %d+%d bytes",
				msgs, out, in, st.Requests, st.BytesSent, st.BytesRecv)
		}
	}
	return nil
}

// sameVirtual reports how two measurements of one seed differ on the virtual
// clock; tracing must not move it.
func sameVirtual(a, b *measurement) error {
	for i, ra := range a.stages {
		rb := b.stages[i]
		if ra.committed != rb.committed || ra.aborted != rb.aborted || ra.window() != rb.window() || ra.inWindow != rb.inWindow {
			return fmt.Errorf("stage %d: traced run diverged from the untraced run of the same seed (commits %v/%v, aborts %v/%v, window %v/%v)",
				i, ra.committed, rb.committed, ra.aborted, rb.aborted, ra.window(), rb.window())
		}
		for c := range ra.lat {
			for j := range ra.lat[c] {
				if ra.lat[c][j] != rb.lat[c][j] {
					return fmt.Errorf("stage %d: %s latency sample %d differs between traced and untraced run: %v vs %v",
						i, classNames[c], j, ra.lat[c][j], rb.lat[c][j])
				}
			}
		}
	}
	return nil
}

// value is one reported metric. N is the number of samples a timing or ratio
// rests on (0 where that has no meaning).
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// report is the full result of one run, printed before the contract line and
// consumed by `suite` and `diff`.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Trace     bool             `json:"trace"`
	Attempted uint64           `json:"attempted"`
	Failed    uint64           `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Tails is, per class, the highest percentile the sample supports and
	// its value, beside the fixed-percentile metrics above.
	Tails map[string]tail `json:"tails"`
	Files []string        `json:"files,omitempty"`
}

// set records one metric; its unit comes from the spec (fillUnits).
func (rep *report) set(name string, v float64, n uint64) {
	rep.Metrics[name] = value{Value: v, N: int(n)}
}

type tail struct {
	Percentile float64 `json:"percentile"`
	Ms         float64 `json:"ms"`
	N          int     `json:"n"`
}

// runWorkload is one benchmark run: with trace off it reports the end-to-end
// metrics of an undecorated, untraced run; with trace on it runs the same
// seed twice, untraced then traced, and reports the per-layer metrics.
func runWorkload(w workload, seed int64, seconds int, traced bool, outDir string) (*report, error) {
	rep := &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced, Metrics: map[string]value{}, Tails: map[string]tail{}}
	var setups []float64
	var probes map[string]probeResult
	if traced {
		// First, on a small heap: later the collector would be tracing two
		// whole deployments in the middle of a 200 ns loop.
		var err error
		if probes, err = runProbes(); err != nil {
			return nil, err
		}
	} else {
		for i := 1; i < setupReps; i++ {
			d, err := deploy(w, seed, false, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.setup.Seconds())
			// Collect the discarded cluster now, so peak memory is one
			// deployment's and not a function of when the collector ran.
			runtime.GC()
		}
	}
	base, err := measure(w, seed, seconds, false)
	if err != nil {
		return nil, err
	}
	setups = append(setups, base.d.setup.Seconds())
	for _, r := range base.stages {
		rep.Attempted += r.issued
		rep.Failed += r.errored
	}
	if !traced {
		if err := endToEnd(rep, base, setups); err != nil {
			return nil, err
		}
		return rep, fillUnits(rep)
	}

	tr, err := measure(w, seed, seconds, true)
	if err != nil {
		return nil, err
	}
	if err := sameVirtual(base, tr); err != nil {
		return nil, err
	}
	if err := perLayer(rep, base, tr, probes); err != nil {
		return nil, err
	}
	if outDir != "" {
		if rep.Files, err = writeTraces(tr, outDir, fmt.Sprintf("%s-seed%d", w.name, seed)); err != nil {
			return nil, err
		}
	}
	return rep, fillUnits(rep)
}

// classLatency adds the p-quantile of one class of stage r as the metric
// <class>_p<P>_ms, and records the highest percentile the sample supports.
func classLatency(rep *report, r *stageResult, t tpcc.TxType, p float64) {
	s := r.lat[t]
	name := classNames[t]
	if best := pickTail(len(s)); best > 0 {
		rep.Tails[name] = tail{Percentile: 100 * best, Ms: ms(quantile(s, best)), N: len(s)}
	}
	rep.set(fmt.Sprintf("%s_p%g_ms", name, 100*p), ms(quantile(s, p)), uint64(len(s)))
}

// endToEnd fills the metrics a user of the system would see.
func endToEnd(rep *report, m *measurement, setups []float64) error {
	r := m.ref()
	set := rep.set
	set("setup_s", median(setups), uint64(len(setups)))
	win := r.window().Seconds()
	set("tpmc", ratio(float64(r.inWindow[tpcc.TxNewOrder]), win/60), r.inWindow[tpcc.TxNewOrder])
	set("txn_per_s", ratio(float64(r.totalInWindow()), win), r.totalInWindow())
	set("commit_ratio", ratio(float64(r.totalCommitted()), float64(r.issued)), r.issued)
	classLatency(rep, r, tpcc.TxNewOrder, 0.5)
	classLatency(rep, r, tpcc.TxNewOrder, 0.95)
	classLatency(rep, r, tpcc.TxOrderStatus, 0.5)
	classLatency(rep, r, tpcc.TxStockLevel, 0.5)
	var all []time.Duration
	for _, l := range r.lat {
		all = append(all, l...)
	}
	set("txn_p99_ms", ms(quantile(all, 0.99)), uint64(len(all)))
	set("host_us_per_txn", m.hostUsPerTxn(), m.hostTxns)
	set("host_allocs_per_txn", ratio(float64(m.after.mallocs-m.before.mallocs), float64(m.hostTxns)), m.hostTxns)
	rss, err := peakRSSMB()
	set("peak_rss_mb", rss, 0)
	return err
}

// fillUnits stamps every reported metric with its unit from the spec, and
// fails if the run did not measure one the spec promises.
func fillUnits(rep *report) error {
	for _, s := range specFor(rep.Trace) {
		v, ok := rep.Metrics[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		v.Unit = s.Unit
		rep.Metrics[s.Name] = v
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// writeTraces writes the engine's Chrome trace and the benchmark's own spans
// of the traced run under dir.
func writeTraces(m *measurement, dir, stem string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	engine := filepath.Join(dir, stem+".engine-trace.json")
	spans := filepath.Join(dir, stem+".bench-spans.json")
	if err := writeFile(engine, m.d.rec.WriteChromeTrace); err != nil {
		return nil, err
	}
	if err := writeFile(spans, m.d.ledger.writeSpans); err != nil {
		return nil, err
	}
	return []string{engine, spans}, nil
}
