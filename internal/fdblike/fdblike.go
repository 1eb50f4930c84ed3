// Package fdblike implements the FoundationDB-style comparison system of
// §6.5: a shared-data database whose commit validation is *centralised* —
// every transaction obtains a read version from a single sequencer and
// submits its read/write sets to a single resolver for optimistic conflict
// checking — and whose SQL layer issues per-row storage requests without
// the batching and index techniques of Tell.
//
// The paper's point is that shared-data "if not done right" still scales
// with nodes but lands a factor ≈30 below Tell; here that gap emerges from
// the chatty SQL layer (one round trip per row read) plus the sequencer and
// resolver round trips on every transaction.
package fdblike

import (
	"sync"
	"time"

	"tell/internal/baseline"
	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/trace"
)

// Costs parameterize the model.
type Costs struct {
	// SQLOverhead is the per-transaction SQL-layer cost.
	SQLOverhead time.Duration
	// PerRowRead is one storage-server round trip: the SQL layer reads
	// row by row.
	PerRowRead time.Duration
	// SequencerRTT is the get-read-version round trip (every transaction).
	SequencerRTT time.Duration
	// ResolverRTT is the commit round trip (write transactions).
	ResolverRTT time.Duration
	// ResolverPerKey is the resolver CPU per read/write-set key — the
	// centralised component every commit funnels through.
	ResolverPerKey time.Duration
	// StoragePerRow is storage-server CPU per row touched.
	StoragePerRow time.Duration
}

// DefaultCosts returns calibrated parameters.
func DefaultCosts() Costs {
	return Costs{
		SQLOverhead: 2 * time.Millisecond,
		// The SQL Layer reads row by row through its Java client stack;
		// calibrated against Table 4's 149ms mean transaction latency.
		PerRowRead:     5 * time.Millisecond,
		SequencerRTT:   300 * time.Microsecond,
		ResolverRTT:    300 * time.Microsecond,
		ResolverPerKey: 5 * time.Microsecond,
		StoragePerRow:  5 * time.Microsecond,
	}
}

// workers bounds concurrent transactions per process node.
const workers = 8

// Config assembles an engine.
type Config struct {
	Costs Costs
}

// Engine is an FDB-style shared-data cluster over a native TPC-C dataset.
type Engine struct {
	cfg  Config
	envr env.Full
	ds   *baseline.Dataset

	// sequencer and resolver are the centralised services: dedicated
	// single-node CPU resources every transaction funnels through.
	sequencer env.Node
	resolver  env.Node

	// version state of the optimistic protocol.
	mu          sync.Mutex
	version     uint64
	lastWrite   map[string]uint64
	state       *env.Locker
	conflictCnt uint64

	procs []*procNode
	next  int
}

// procNode is one processing node's worker pool.
type procNode struct {
	node env.Node
	jobs env.Queue
}

// job carries the submitting transaction's tracing scope so the worker's
// time is attributed to it (sc/enq mirror the voltlike partition jobs).
type job struct {
	fn   func(ctx env.Ctx)
	done env.Future
	sc   trace.Scope
	enq  time.Duration
}

// New builds the engine: proc workers on the given nodes plus dedicated
// sequencer and resolver nodes.
func New(cfg Config, envr env.Full, ds *baseline.Dataset, nodes []env.Node, sequencer, resolver env.Node) *Engine {
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	e := &Engine{
		cfg:       cfg,
		envr:      envr,
		ds:        ds,
		sequencer: sequencer,
		resolver:  resolver,
		lastWrite: make(map[string]uint64),
		state:     env.NewLocker(envr),
	}
	for _, n := range nodes {
		pn := &procNode{node: n, jobs: envr.NewQueue()}
		e.procs = append(e.procs, pn)
		for w := 0; w < workers; w++ {
			n.Go("fdb-worker", func(ctx env.Ctx) {
				sc := ctx.Trace()
				for {
					v, ok := pn.jobs.Get(ctx)
					if !ok {
						return
					}
					j := v.(*job)
					if j.sc.R != nil {
						saved := *sc
						*sc = j.sc
						j.sc.Agg.Add(trace.CompPoolWait, ctx.Now()-j.enq)
						j.fn(ctx)
						*sc = saved
					} else {
						j.fn(ctx)
					}
					j.done.Set(nil)
				}
			})
		}
	}
	return e
}

// run schedules one transaction on a proc worker.
func (e *Engine) run(ctx env.Ctx, t tpcc.TxType, input any) (bool, error) {
	e.mu.Lock()
	pn := e.procs[e.next%len(e.procs)]
	e.next++
	e.mu.Unlock()
	var ok bool
	j := &job{done: e.envr.NewFuture()}
	j.fn = func(wctx env.Ctx) { ok = e.transact(wctx, t, input) }
	if sc := ctx.Trace(); sc.R != nil {
		j.sc = *sc
		j.enq = ctx.Now()
	}
	pn.jobs.Put(j)
	j.done.Get(ctx)
	return ok, nil
}

// transact is the optimistic protocol: read version → chatty reads →
// central resolution → apply.
func (e *Engine) transact(ctx env.Ctx, t tpcc.TxType, input any) bool {
	c := e.cfg.Costs
	ctx.Work(c.SQLOverhead)

	// 1. Read version from the single sequencer (RTT + sequencer CPU).
	baseline.SleepNet(ctx, c.SequencerRTT)
	e.seqWork(ctx, time.Microsecond)
	e.mu.Lock()
	readVersion := e.version
	e.mu.Unlock()

	// 2. The SQL layer reads rows one round trip at a time (§6.5: no
	// aggressive batching).
	reads, writes := baseline.AccessSet(e.ds, t, input)
	for range reads {
		baseline.SleepRemote(ctx, c.PerRowRead)
	}
	for range writes {
		baseline.SleepRemote(ctx, c.PerRowRead) // writes read the row first
	}
	ctx.Work(time.Duration(len(reads)+len(writes)) * c.StoragePerRow)

	if !baseline.IsWrite(t) {
		// Read-only transactions read at a snapshot and need no commit.
		roStart := ctx.Now()
		e.state.Lock(ctx)
		baseline.Charge(ctx, trace.CompConflict, ctx.Now()-roStart)
		res := baseline.Exec(e.ds, t, input)
		e.state.Unlock()
		return res.OK
	}

	// 3. Commit through the central resolver: validate the read and
	// write sets against versions committed after our read version.
	baseline.SleepNet(ctx, c.ResolverRTT)
	e.resolverWork(ctx, time.Duration(len(reads)+len(writes))*c.ResolverPerKey)

	commitStart := ctx.Now()
	e.state.Lock(ctx)
	baseline.Charge(ctx, trace.CompConflict, ctx.Now()-commitStart)
	conflict := false
	e.mu.Lock()
	for _, k := range append(append([]string{}, reads...), writes...) {
		if e.lastWrite[k] > readVersion {
			conflict = true
			break
		}
	}
	if conflict {
		e.conflictCnt++
		e.mu.Unlock()
		e.state.Unlock()
		return false
	}
	e.version++
	commitVersion := e.version
	for _, k := range writes {
		e.lastWrite[k] = commitVersion
	}
	e.mu.Unlock()
	res := baseline.Exec(e.ds, t, input)
	e.state.Unlock()
	return res.OK
}

// seqWork charges CPU on the sequencer node via a short-lived activity.
func (e *Engine) seqWork(ctx env.Ctx, d time.Duration) { e.remoteWork(ctx, e.sequencer, d) }

// resolverWork charges CPU on the resolver node.
func (e *Engine) resolverWork(ctx env.Ctx, d time.Duration) { e.remoteWork(ctx, e.resolver, d) }

// remoteWork blocks the caller while d of CPU is consumed on node — the
// service-time component of a centralised service under load.
func (e *Engine) remoteWork(ctx env.Ctx, node env.Node, d time.Duration) {
	done := e.envr.NewFuture()
	t0 := ctx.Now()
	node.Go("svc", func(sctx env.Ctx) {
		sctx.Work(d)
		done.Set(nil)
	})
	done.Get(ctx)
	baseline.Charge(ctx, trace.CompRemote, ctx.Now()-t0)
}

// --- tpcc.Engine implementation ---

// NewOrder runs the new-order transaction via the optimistic sequencer/resolver protocol.
func (e *Engine) NewOrder(ctx env.Ctx, in *tpcc.NewOrderInput) (bool, error) {
	return e.run(ctx, tpcc.TxNewOrder, in)
}

// Payment runs the payment transaction via the optimistic sequencer/resolver protocol.
func (e *Engine) Payment(ctx env.Ctx, in *tpcc.PaymentInput) (bool, error) {
	return e.run(ctx, tpcc.TxPayment, in)
}

// OrderStatus runs the order-status transaction via the optimistic sequencer/resolver protocol.
func (e *Engine) OrderStatus(ctx env.Ctx, in *tpcc.OrderStatusInput) (bool, error) {
	return e.run(ctx, tpcc.TxOrderStatus, in)
}

// Delivery runs the delivery transaction via the optimistic sequencer/resolver protocol.
func (e *Engine) Delivery(ctx env.Ctx, in *tpcc.DeliveryInput) (bool, error) {
	return e.run(ctx, tpcc.TxDelivery, in)
}

// StockLevel runs the stock-level transaction via the optimistic sequencer/resolver protocol.
func (e *Engine) StockLevel(ctx env.Ctx, in *tpcc.StockLevelInput) (bool, error) {
	return e.run(ctx, tpcc.TxStockLevel, in)
}
