// Package exp defines the paper's experiments: one runner per evaluation
// table and figure (§6). Every experiment assembles a virtual cluster on
// the discrete-event simulator, loads TPC-C, drives terminals, and reports
// the same rows/series the paper reports. cmd/tellbench and bench_test.go
// are thin wrappers around this package.
package exp

import (
	"fmt"
	"time"

	"tell/internal/baseline"
	"tell/internal/chaos"
	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/fdblike"
	"tell/internal/histcheck"
	"tell/internal/ndblike"
	"tell/internal/obs"
	"tell/internal/resil"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/tpcc"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/voltlike"
)

// Options are the workload knobs shared by all experiments.
type Options struct {
	// Warehouses is the TPC-C scale factor. The paper used 200 on seven
	// storage servers; the default here fits one host (see EXPERIMENTS.md).
	Warehouses int
	// Scale shrinks per-warehouse row counts (see tpcc.Config.Scale).
	Scale float64
	// Warmup and Measure are transaction counts.
	Warmup, Measure int
	Seed            int64
	// Trace records a full deterministic event trace of the run; the
	// recorder comes back on TellRun.Trace (or from RunBaselineTraced).
	Trace bool
	// Series enables the windowed telemetry pipeline (internal/obs):
	// per-class SLO series on the virtual clock, per-range heat tracking on
	// every storage node, and the slow-transaction flight recorder. The
	// pipeline comes back on TellRun.Obs. When Trace is off a counters-only
	// recorder is installed so the flight recorder still sees span trees
	// without the run buffering its whole event log.
	Series bool
	// Durable attaches a WAL + fuzzy checkpoints to every storage node:
	// "mem" uses the zero-latency blob backend (isolates the protocol
	// overhead of logging before ack), "s3" the latency-injected S3-profile
	// backend. Empty runs the storage tier volatile, as the paper's
	// evaluation did.
	Durable string
}

// terminalsPerWorker oversubscribes the PN worker pools so queueing occurs,
// as the paper's terminal counts did.
const terminalsPerWorker = 2

// Defaults fills zero fields.
func (o *Options) Defaults() {
	if o.Warehouses <= 0 {
		o.Warehouses = 16
	}
	if o.Scale <= 0 {
		o.Scale = 0.05
	}
	if o.Warmup <= 0 {
		o.Warmup = 200
	}
	if o.Measure <= 0 {
		o.Measure = 2000
	}
	if o.Seed == 0 {
		// TELL_SEED replays a whole experiment run; 42 otherwise.
		o.Seed = env.SeedFromEnv(42)
	}
}

func (o Options) tpccConfig() tpcc.Config {
	return tpcc.Config{Warehouses: o.Warehouses, Scale: o.Scale, Seed: o.Seed}
}

// DefaultSLOs is the per-class latency objective set evaluated when
// Options.Series is set. The targets are calibrated against the simulated
// InfiniBand deployment (§6.2 latencies are sub-millisecond at the median):
// loose enough that a healthy run stays green, tight enough that contention
// or fault injection visibly breaches.
func DefaultSLOs() []obs.SLO {
	return []obs.SLO{
		{Class: "new-order", P50: 2 * time.Millisecond, P99: 20 * time.Millisecond, P999: 80 * time.Millisecond},
		{Class: "payment", P50: 2 * time.Millisecond, P99: 20 * time.Millisecond, P999: 80 * time.Millisecond},
		{Class: "order-status", P50: 1 * time.Millisecond, P99: 10 * time.Millisecond, P999: 40 * time.Millisecond},
		{Class: "delivery", P50: 5 * time.Millisecond, P99: 50 * time.Millisecond, P999: 200 * time.Millisecond},
		{Class: "stock-level", P50: 2 * time.Millisecond, P99: 20 * time.Millisecond, P999: 80 * time.Millisecond},
	}
}

// TellParams configure one Tell deployment.
type TellParams struct {
	PNs, SNs, CMs     int
	ReplicationFactor int
	Workers           int // per PN; default 8
	Network           transport.NetworkClass
	Buffer            core.BufferStrategy
	CacheUnitSize     int
	Mix               tpcc.Mix
	SyncInterval      time.Duration
	TidRange          int64
	// InterleavedTids switches the commit managers to the interleaved
	// allocation scheme (§4.2 future work).
	InterleavedTids bool
	// BatchWindow sets the store client's adaptive batching window (how
	// long a sender may linger to widen a batch under load). 0 batches
	// greedily — the client's nonzero default targets real kernel-TCP
	// links, not the simulated fabrics.
	BatchWindow time.Duration
	// NoCMCoalesce reverts the commit-manager client to the split
	// protocol: one start RPC and one finished RPC per transaction.
	NoCMCoalesce bool
	// NoDeltaSnapshots makes every grouped CM response carry the full
	// snapshot descriptor instead of a delta against the last acked one.
	NoDeltaSnapshots bool
	// Fault injection (ablation-resilience): per-message-leg probabilities
	// applied to every kind for the whole run. All zero means no injector
	// is installed.
	DropProb, DupProb, DelayProb float64
	MaxDelay                     time.Duration
	// NetTimeout overrides the simulated network's round-trip timeout.
	// Under fault injection the 50ms default would turn every dropped leg
	// into a 50ms stall and drown the retry policy's own deadlines; the
	// resilience experiments use ~2ms.
	NetTimeout time.Duration
}

func (p *TellParams) defaults() {
	if p.PNs <= 0 {
		p.PNs = 1
	}
	if p.SNs <= 0 {
		p.SNs = 3
	}
	if p.CMs <= 0 {
		p.CMs = 1
	}
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 1
	}
	if p.Workers <= 0 {
		p.Workers = 8
	}
	if p.Network.Name == "" {
		p.Network = transport.InfiniBand()
	}
	if p.Mix.Name == "" {
		p.Mix = tpcc.StandardMix()
	}
	if p.SyncInterval <= 0 {
		p.SyncInterval = time.Millisecond
	}
}

// Cores returns the total CPU cores of the deployment, the x-axis of
// Figures 8 and 9 (PN and SN processes get 4 cores — one NUMA unit of the
// paper's servers — commit managers 2, the management node 2).
func (p TellParams) Cores() int {
	return p.PNs*deploy.PNCores + p.SNs*store.SNCores + p.CMs*deploy.CMCores + 2
}

// TellRun is the outcome of one Tell deployment run.
type TellRun struct {
	Result *tpcc.Result
	// AbortRate is the overall transaction abort rate (§6.3.1).
	AbortRate float64
	// Requests and bytes on the simulated network (§6.6).
	NetRequests uint64
	NetBytes    uint64
	// BatchFactor is ops per storage request achieved by the batcher.
	BatchFactor float64
	// CMMsgs is the number of commit-manager round trips issued by all
	// processing nodes; CMMsgsPerTxn divides by committed transactions
	// (the split protocol costs ≥ 2, the coalesced one a fraction of
	// that — the target of the ablation-coalesce experiment).
	CMMsgs       uint64
	CMMsgsPerTxn float64
	// MsgsPerTxn and BytesPerTxn are total network round trips and bytes
	// (both directions) per committed transaction (§6.6 reports network
	// cost; these make the per-transaction message budget visible).
	MsgsPerTxn  float64
	BytesPerTxn float64
	// Trace is the event recorder, non-nil when Options.Trace was set.
	Trace *trace.Recorder
	// Obs is the telemetry pipeline, non-nil when Options.Series was set.
	Obs *obs.Pipeline
	// Resilience counters (ablation-resilience). Retries counts transport-
	// level retries scheduled by every store and CM client; RetryHash is the
	// merged deterministic digest of those schedules — with the same
	// TELL_SEED two runs must produce identical hashes. Sheds and Replays
	// are summed over storage nodes and commit managers; Drops/Dups/Delays
	// are the injector's fault counts (zero when no faults configured).
	Retries       uint64
	RetryHash     uint64
	RetriesPerTxn float64
	Sheds         uint64
	Replays       uint64
	Drops         uint64
	Dups          uint64
	Delays        uint64
	// Anomalies is the number of snapshot-isolation violations found by the
	// offline history checker; it is recorded only on fault-injected runs
	// (zero otherwise) and must always be zero.
	Anomalies int
}

// RunTell executes one full Tell deployment run.
func RunTell(opt Options, p TellParams) (*TellRun, error) {
	opt.Defaults()
	p.defaults()
	s := deploy.NewSim(opt.Seed, p.Network)
	envr, net := s.Env, s.Net
	var rec *trace.Recorder
	if opt.Trace {
		// Install before any node exists so every activity sees the
		// recorder in its scope.
		rec = trace.New(envr.Now)
		env.SetTracer(envr, rec)
	}
	var pipe *obs.Pipeline
	if opt.Series {
		// Adaptive p99.9 capture is on by default: tail-based sampling is
		// the point of the flight recorder, and the threshold is
		// deterministic (same-run history only).
		pipe = obs.New(obs.Config{SLOs: DefaultSLOs(), AdaptiveOutliers: true}, envr.Now)
		tracer := rec
		if tracer == nil {
			// Counters-only: spans reach the flight recorder through the
			// tap without the Recorder buffering the run's event log.
			tracer = trace.NewCounters(envr.Now)
			env.SetTracer(envr, tracer)
		}
		tracer.SetTap(pipe.Flight())
	}
	if p.NetTimeout > 0 {
		net.SetTimeout(p.NetTimeout)
	}

	spec := deploy.Spec{
		Storage: store.ClusterConfig{
			NumNodes:          p.SNs,
			ReplicationFactor: p.ReplicationFactor,
		},
		CMs: p.CMs,
		PNs: p.PNs,
		PN: core.Config{
			Workers:         p.Workers,
			Buffer:          p.Buffer,
			CacheUnitSize:   p.CacheUnitSize,
			CacheIndexInner: true,
		},
		Obs: pipe,
	}
	switch opt.Durable {
	case "":
	case "mem", "s3":
		prof := durable.MemProfile()
		if opt.Durable == "s3" {
			prof = durable.S3Profile()
		}
		spec.Storage.Durable = &store.DurOptions{
			Backend:         durable.NewBlob(prof),
			SegmentBytes:    256 << 10,
			CheckpointBytes: 8 << 20,
		}
	default:
		return nil, fmt.Errorf("exp: unknown durable backend %q (want mem or s3)", opt.Durable)
	}
	if err := s.Build(spec); err != nil {
		return nil, err
	}
	cluster := s.Storage
	if _, err := tpcc.Load(cluster, opt.tpccConfig()); err != nil {
		return nil, err
	}
	for _, sn := range cluster.Nodes {
		if p.NetTimeout > 0 {
			// Scale backoffs with the tightened timeout everywhere,
			// including the storage nodes' synchronous replication shipping.
			sn.SetRetryPolicies(resil.FastPolicies(p.NetTimeout))
		}
	}
	// Fault injection goes in after loading (the workload, not the bulk
	// load, is what the resilience ablation stresses). Faulted runs also
	// record the full transaction history and check it for isolation
	// anomalies: a resilience number from a run that silently lost or
	// double-applied a write would be worthless.
	var inj *chaos.Injector
	var hist *histcheck.History
	if p.DropProb > 0 || p.DupProb > 0 || p.DelayProb > 0 {
		inj = chaos.Install(s.K, net, chaos.Plan{
			Name: "resilience-faults",
			Msg: []chaos.MessageFaults{{
				DropProb:  p.DropProb,
				DupProb:   p.DupProb,
				DelayProb: p.DelayProb,
				MaxDelay:  p.MaxDelay,
			}},
		}, opt.Seed)
		hist = histcheck.New()
	}

	for _, cm := range s.CMs {
		cm.SyncInterval = p.SyncInterval
		cm.Interleaved = p.InterleavedTids
		if p.TidRange > 0 {
			cm.TidRange = p.TidRange
		}
	}
	for i, pn := range s.PNs {
		sc, cmc := s.StoreClients[i], s.CMClients[i]
		// The deadline window only pays when it is small against the
		// link round trip; on the simulated microsecond-scale fabrics
		// the client's kernel-TCP default would dominate commit latency
		// (and mask effects an experiment isolates, e.g. replication
		// cost), so the harness batches greedily unless the experiment
		// sets a window (ablation-coalesce sweeps it).
		sc.BatchWindow = p.BatchWindow
		if p.NetTimeout > 0 {
			sc.Resil.Policies = resil.FastPolicies(p.NetTimeout)
			cmc.Resil.Policies = resil.FastPolicies(p.NetTimeout)
		}
		cmc.Coalesce = !p.NoCMCoalesce
		cmc.DeltaSnapshots = !p.NoDeltaSnapshots
		if hist != nil {
			pn.SetRecorder(hist)
		}
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	// Workers spawn after the commit managers' processes: the spawn-order
	// contract of internal/deploy.
	for _, pn := range s.PNs {
		pn.StartWorkers()
	}

	terminals := p.PNs * p.Workers * terminalsPerWorker
	var res *tpcc.Result
	var runErr error
	err := s.Run(6*time.Hour, func(ctx env.Ctx) {
		var engines []tpcc.Engine
		for _, pn := range s.PNs {
			eng, err := tpcc.NewTellEngine(ctx, pn)
			if err != nil {
				runErr = err
				return
			}
			engines = append(engines, eng)
		}
		drv := tpcc.NewDriver(opt.tpccConfig(), p.Mix, engines, terminals, opt.Seed)
		drv.Obs = pipe
		res = drv.Run(ctx, envr, s.Driver, opt.Warmup, opt.Measure)
		// Close any still-open windows at the virtual end-of-run so every
		// exporter sees the same final state.
		pipe.Sync(ctx.Now())
	})
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	out := &TellRun{Result: res, AbortRate: res.AbortRate(), Trace: rec, Obs: pipe}
	st := net.Stats()
	out.NetRequests = st.Requests
	out.NetBytes = st.BytesSent + st.BytesRecv
	var ops, batches uint64
	for _, sc := range s.StoreClients {
		ops += sc.Ops()
		batches += sc.Batches()
	}
	if batches > 0 {
		out.BatchFactor = float64(ops) / float64(batches)
	}
	for _, cmc := range s.CMClients {
		out.CMMsgs += cmc.Msgs()
	}
	if committed := res.TotalCommitted(); committed > 0 {
		out.CMMsgsPerTxn = float64(out.CMMsgs) / float64(committed)
		out.MsgsPerTxn = float64(out.NetRequests) / float64(committed)
		out.BytesPerTxn = float64(out.NetBytes) / float64(committed)
	}
	// Resilience counters: merge every client-side retry schedule into one
	// fleet-level digest, and sum server-side shed/replay counts.
	var retriers []*resil.Retrier
	for _, sc := range s.StoreClients {
		retriers = append(retriers, sc.Resil)
	}
	for _, cmc := range s.CMClients {
		retriers = append(retriers, cmc.Resil)
	}
	out.RetryHash, out.Retries = resil.MergeSchedule(retriers)
	for _, addr := range cluster.Addrs() {
		sn := cluster.Node(addr)
		out.Sheds += sn.Sheds()
		out.Replays += sn.Replays()
	}
	for _, cm := range s.CMs {
		out.Sheds += cm.Sheds()
		out.Replays += cm.Replays()
	}
	if committed := res.TotalCommitted(); committed > 0 {
		out.RetriesPerTxn = float64(out.Retries) / float64(committed)
	}
	if inj != nil {
		out.Drops, out.Dups, out.Delays = inj.Stats()
	}
	if hist != nil {
		out.Anomalies = len(hist.Check().Anomalies)
	}
	return out, nil
}

// BaselineKind selects a comparison engine.
type BaselineKind int

const (
	Voltlike BaselineKind = iota
	NDBlike
	FDBlike
)

func (b BaselineKind) String() string {
	switch b {
	case Voltlike:
		return "VoltDB-style"
	case NDBlike:
		return "MySQLCluster-style"
	case FDBlike:
		return "FoundationDB-style"
	}
	return "?"
}

// BaselineParams configure a comparison-system run.
type BaselineParams struct {
	Kind              BaselineKind
	Nodes             int // 8-core machines
	ReplicationFactor int
	Mix               tpcc.Mix
}

// baselineTerminalsPerNode sizes a comparison-system run's terminal pool.
const baselineTerminalsPerNode = 16

// Cores returns the deployment's total core count.
func (p BaselineParams) Cores() int {
	c := p.Nodes * 8
	if p.Kind == FDBlike {
		c += 4 // sequencer + resolver
	}
	return c
}

// RunBaseline executes one comparison-system run.
func RunBaseline(opt Options, p BaselineParams) (*tpcc.Result, error) {
	res, _, err := RunBaselineTraced(opt, p)
	return res, err
}

// RunBaselineTraced is RunBaseline returning the trace recorder as well
// (nil unless opt.Trace is set).
func RunBaselineTraced(opt Options, p BaselineParams) (*tpcc.Result, *trace.Recorder, error) {
	opt.Defaults()
	if p.Nodes <= 0 {
		p.Nodes = 3
	}
	if p.Mix.Name == "" {
		p.Mix = tpcc.StandardMix()
	}
	k := sim.NewKernel(opt.Seed)
	envr := env.NewSim(k)
	var rec *trace.Recorder
	if opt.Trace {
		rec = trace.New(envr.Now)
		env.SetTracer(envr, rec)
	}
	ds := baseline.NewDataset(opt.tpccConfig())
	var nodes []env.Node
	for i := 0; i < p.Nodes; i++ {
		nodes = append(nodes, envr.NewNode(fmt.Sprintf("node%d", i), 8))
	}
	var eng tpcc.Engine
	switch p.Kind {
	case Voltlike:
		eng = voltlike.New(voltlike.Config{ReplicationFactor: p.ReplicationFactor}, envr, ds, nodes)
	case NDBlike:
		eng = ndblike.New(ndblike.Config{ReplicationFactor: p.ReplicationFactor}, envr, ds, nodes)
	case FDBlike:
		seq := envr.NewNode("sequencer", 2)
		resv := envr.NewNode("resolver", 2)
		eng = fdblike.New(fdblike.Config{}, envr, ds, nodes, seq, resv)
	}
	driverNode := envr.NewNode("terminals", 4)
	var res *tpcc.Result
	driverNode.Go("driver", func(ctx env.Ctx) {
		defer k.Stop()
		drv := tpcc.NewDriver(opt.tpccConfig(), p.Mix, []tpcc.Engine{eng}, p.Nodes*baselineTerminalsPerNode, opt.Seed)
		res = drv.Run(ctx, envr, driverNode, opt.Warmup, opt.Measure)
	})
	if err := k.RunUntil(sim.Time(6 * time.Hour)); err != nil {
		return nil, nil, err
	}
	k.Shutdown()
	if res == nil {
		return nil, nil, fmt.Errorf("exp: baseline run did not complete")
	}
	return res, rec, nil
}
