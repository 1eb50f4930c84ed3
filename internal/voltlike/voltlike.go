// Package voltlike implements the VoltDB-style comparison system of §6.4:
// a shared-nothing, partition-per-core in-memory database that executes
// transactions serially within each partition without any concurrency
// control. Single-partition transactions are extremely cheap; transactions
// spanning partitions must stall every involved partition for the duration
// of a globally coordinated execution — the effect that makes the standard
// TPC-C mix (≈11% cross-partition) collapse as nodes are added, and the
// shardable variant excel (Figures 8 and 9).
package voltlike

import (
	"sort"
	"sync"
	"time"

	"tell/internal/baseline"
	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/trace"
)

// Costs model the per-transaction CPU and coordination parameters.
type Costs struct {
	// PerRow is the CPU per logical row access inside a stored procedure
	// (no locking, no buffer manager: very low, the VoltDB pitch).
	PerRow time.Duration
	// ProcOverhead is the fixed cost per procedure invocation on its
	// partition: invocation dispatch, plan cache, and the amortized
	// synchronous command log (VoltDB 4.x sustained a few thousand
	// single-partition transactions per second per partition).
	ProcOverhead time.Duration
	// NetLatency is the one-way network latency between nodes. VoltDB
	// ran over TCP/IP on the InfiniBand fabric (§6.4), so this is the
	// kernel-stack latency, not RDMA.
	NetLatency time.Duration
	// ReplicationRTT is charged per write transaction per replica
	// (K-factor synchronous replication).
	ReplicationRTT time.Duration
	// MultiPartitionOverhead is the fixed cost of one globally ordered
	// multi-partition transaction (coordinator round trips, the MPI
	// barrier, command logging). VoltDB 4.x processed multi-partition
	// work at a few hundred per second cluster-wide — the millisecond
	// scale here — which is why ~11% cross-partition transactions cap
	// the standard mix (§6.4, Table 4's 706ms VoltDB latencies).
	MultiPartitionOverhead time.Duration
}

// DefaultCosts returns calibrated parameters.
func DefaultCosts() Costs {
	return Costs{
		PerRow:                 500 * time.Nanosecond,
		ProcOverhead:           300 * time.Microsecond,
		NetLatency:             40 * time.Microsecond,
		ReplicationRTT:         90 * time.Microsecond,
		MultiPartitionOverhead: 3 * time.Millisecond,
	}
}

// partitionsPerNode is how many partitions each node runs (the paper used 6
// per 8-core node).
const partitionsPerNode = 6

// Config assembles an engine.
type Config struct {
	// ReplicationFactor is the K-factor plus one (RF1 = no replicas).
	ReplicationFactor int
	Costs             Costs
}

// Engine is a VoltDB-style cluster over a native TPC-C dataset.
type Engine struct {
	cfg   Config
	envr  env.Full
	ds    *baseline.Dataset
	parts []*partition

	// multi serializes cross-partition transactions: VoltDB establishes
	// a global order for them. It is held across blocking operations, so
	// it must be an env.Locker, never a sync.Mutex.
	multi *env.Locker

	mu       sync.Mutex
	singleTx uint64
	multiTx  uint64
}

// partition is one serial execution engine.
type partition struct {
	id   int
	eng  *Engine
	node env.Node
	jobs env.Queue
}

// partitionJob is one unit of serial work. sc/enq carry the submitting
// transaction's tracing scope so the executor's work is attributed to it
// and its queue wait is measured.
type partitionJob struct {
	fn   func(ctx env.Ctx)
	done env.Future
	sc   trace.Scope
	enq  time.Duration
}

// New builds the engine: partitions spread over nodes (partitionsPerNode
// per node, as the paper configured), each running one serial executor.
func New(cfg Config, envr env.Full, ds *baseline.Dataset, nodes []env.Node) *Engine {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	e := &Engine{cfg: cfg, envr: envr, ds: ds, multi: env.NewLocker(envr)}
	for i := 0; i < len(nodes)*partitionsPerNode; i++ {
		p := &partition{id: i, eng: e, node: nodes[i%len(nodes)], jobs: envr.NewQueue()}
		e.parts = append(e.parts, p)
		p.node.Go("executor", p.run)
	}
	return e
}

// partitionOf maps a warehouse to its owning partition.
func (e *Engine) partitionOf(w int) *partition {
	return e.parts[w%len(e.parts)]
}

func (p *partition) run(ctx env.Ctx) {
	sc := ctx.Trace()
	for {
		v, ok := p.jobs.Get(ctx)
		if !ok {
			return
		}
		j := v.(*partitionJob)
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
}

// submit runs fn serially on the partition and waits.
func (p *partition) submit(ctx env.Ctx, fn func(ctx env.Ctx)) {
	j := &partitionJob{fn: fn, done: p.eng.envr.NewFuture()}
	if sc := ctx.Trace(); sc.R != nil {
		j.sc = *sc
		j.enq = ctx.Now()
	}
	p.jobs.Put(j)
	j.done.Get(ctx)
}

// exec routes one transaction. Single-partition: enqueue the procedure on
// the owning partition. Multi-partition: take the global coordination lock,
// stall every involved partition, execute, release.
func (e *Engine) exec(ctx env.Ctx, warehouses []int, writes bool, fn func(ctx env.Ctx) bool) (bool, error) {
	parts := e.partitionsFor(warehouses)
	c := e.cfg.Costs
	if len(parts) == 1 {
		e.mu.Lock()
		e.singleTx++
		e.mu.Unlock()
		p := parts[0]
		// Client → partition network hop.
		baseline.SleepNet(ctx, c.NetLatency)
		var ok bool
		p.submit(ctx, func(pctx env.Ctx) {
			pctx.Work(c.ProcOverhead)
			ok = fn(pctx)
			if ok && writes {
				e.replicate(pctx)
			}
		})
		baseline.SleepNet(ctx, c.NetLatency)
		return ok, nil
	}

	// Multi-partition: globally ordered, and — as in VoltDB's MPI — the
	// transaction executes as a barrier across EVERY partition of the
	// cluster, not just the partitions it touches: the global serial
	// order must hold everywhere.
	e.mu.Lock()
	e.multiTx++
	e.mu.Unlock()
	lockStart := ctx.Now()
	e.multi.Lock(ctx)
	baseline.Charge(ctx, trace.CompConflict, ctx.Now()-lockStart)
	defer e.multi.Unlock()

	all := e.parts
	release := e.envr.NewFuture()
	arrived := make([]env.Future, len(all))
	for i, p := range all {
		i, p := i, p
		arrived[i] = e.envr.NewFuture()
		// The stall job parks the executor: no other transaction can
		// run on this partition while the coordinator works.
		p.jobs.Put(&partitionJob{
			fn: func(pctx env.Ctx) {
				arrived[i].Set(nil)
				release.Get(pctx)
			},
			done: e.envr.NewFuture(),
		})
	}
	// Coordinator: one network round per partition to acquire.
	for range all {
		baseline.SleepNet(ctx, c.NetLatency)
	}
	stallStart := ctx.Now()
	for _, a := range arrived {
		a.Get(ctx)
	}
	baseline.Charge(ctx, trace.CompRemote, ctx.Now()-stallStart)
	// All partitions stalled: safe to touch their state directly.
	baseline.SleepRemote(ctx, c.MultiPartitionOverhead)
	ctx.Work(c.ProcOverhead * time.Duration(len(parts)))
	ok := fn(ctx)
	if ok && writes {
		e.replicate(ctx)
	}
	// Release (one hop per partition).
	for range all {
		baseline.SleepNet(ctx, c.NetLatency)
	}
	release.Set(nil)
	return ok, nil
}

// replicate charges the synchronous K-safety replication round trips.
func (e *Engine) replicate(ctx env.Ctx) {
	for r := 1; r < e.cfg.ReplicationFactor; r++ {
		baseline.SleepNet(ctx, e.cfg.Costs.ReplicationRTT)
	}
}

func (e *Engine) partitionsFor(warehouses []int) []*partition {
	seen := make(map[int]*partition)
	for _, w := range warehouses {
		p := e.partitionOf(w)
		seen[p.id] = p
	}
	out := make([]*partition, 0, len(seen))
	for _, p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// chargeRows accounts per-row CPU on the executing context.
func (e *Engine) chargeRows(ctx env.Ctx, res *baseline.Result) {
	r, w := res.RowAccessCount()
	ctx.Work(time.Duration(r+w) * e.cfg.Costs.PerRow)
}

// --- tpcc.Engine implementation ---

// NewOrder runs the new-order procedure.
func (e *Engine) NewOrder(ctx env.Ctx, in *tpcc.NewOrderInput) (bool, error) {
	ws := baseline.WarehousesOf(tpcc.TxNewOrder, in)
	return e.exec(ctx, ws, true, func(pctx env.Ctx) bool {
		res := baseline.NewOrder(e.ds, in)
		e.chargeRows(pctx, &res)
		return res.OK
	})
}

// Payment runs the payment procedure.
func (e *Engine) Payment(ctx env.Ctx, in *tpcc.PaymentInput) (bool, error) {
	ws := baseline.WarehousesOf(tpcc.TxPayment, in)
	return e.exec(ctx, ws, true, func(pctx env.Ctx) bool {
		res := baseline.Payment(e.ds, in)
		e.chargeRows(pctx, &res)
		return res.OK
	})
}

// OrderStatus runs the order-status procedure.
func (e *Engine) OrderStatus(ctx env.Ctx, in *tpcc.OrderStatusInput) (bool, error) {
	ws := baseline.WarehousesOf(tpcc.TxOrderStatus, in)
	return e.exec(ctx, ws, false, func(pctx env.Ctx) bool {
		res := baseline.OrderStatus(e.ds, in)
		e.chargeRows(pctx, &res)
		return res.OK
	})
}

// Delivery runs the delivery procedure.
func (e *Engine) Delivery(ctx env.Ctx, in *tpcc.DeliveryInput) (bool, error) {
	ws := baseline.WarehousesOf(tpcc.TxDelivery, in)
	return e.exec(ctx, ws, true, func(pctx env.Ctx) bool {
		res := baseline.Delivery(e.ds, in)
		e.chargeRows(pctx, &res)
		return res.OK
	})
}

// StockLevel runs the stock-level procedure.
func (e *Engine) StockLevel(ctx env.Ctx, in *tpcc.StockLevelInput) (bool, error) {
	ws := baseline.WarehousesOf(tpcc.TxStockLevel, in)
	return e.exec(ctx, ws, false, func(pctx env.Ctx) bool {
		res := baseline.StockLevel(e.ds, in)
		e.chargeRows(pctx, &res)
		return res.OK
	})
}
