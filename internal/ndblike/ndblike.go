// Package ndblike implements the MySQL-Cluster-style comparison system of
// §6.4: a partitioned database whose data nodes hold warehouse shards with
// row-level locks, fronted by SQL nodes that federate row accesses over the
// network and finish distributed transactions with two-phase commit.
//
// The property the paper highlights — MySQL Cluster is "slightly faster
// than VoltDB because single-partition transactions are not blocked by
// distributed transactions" — emerges here from row-level locking: a
// cross-warehouse payment only blocks the rows it touches, not whole
// partitions, but every row access pays a network round trip through the
// SQL-node federation layer, which bounds absolute throughput.
package ndblike

import (
	"sort"
	"strings"
	"sync"
	"time"

	"tell/internal/baseline"
	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/tpcc"
	"tell/internal/trace"
)

// Costs parameterize the model.
type Costs struct {
	// SQLOverhead is the per-transaction cost on the SQL node (parsing,
	// plan, federation bookkeeping).
	SQLOverhead time.Duration
	// PerRow is the data-node CPU per row access.
	PerRow time.Duration
	// NetRTT is one SQL-node ↔ data-node round trip (TCP over the
	// InfiniBand fabric).
	NetRTT time.Duration
	// RowsPerBatch is how many row operations one network round trip
	// carries (NDB batches reads).
	RowsPerBatch int
	// ReplicaRTT is charged per participant data node per replica for
	// synchronous replication.
	ReplicaRTT time.Duration
	// LockWaitTimeout aborts transactions that wait too long.
	LockWaitTimeout time.Duration
}

// DefaultCosts returns calibrated parameters.
func DefaultCosts() Costs {
	return Costs{
		SQLOverhead: 200 * time.Microsecond,
		PerRow:      20 * time.Microsecond,
		// The effective per-row federation cost through the MySQL SQL
		// layer and the NDB API (statement processing + TCP round trip):
		// calibrated against Table 4's 34ms mean transaction latency.
		NetRTT:          1200 * time.Microsecond,
		RowsPerBatch:    1,
		ReplicaRTT:      400 * time.Microsecond,
		LockWaitTimeout: 400 * time.Millisecond,
	}
}

// sqlWorkers bounds concurrent transactions per SQL node.
const sqlWorkers = 8

// Config assembles an engine.
type Config struct {
	// ReplicationFactor: copies per fragment (NDB NoOfReplicas).
	ReplicationFactor int
	Costs             Costs
}

// Engine is an NDB-style cluster over a native TPC-C dataset.
type Engine struct {
	cfg  Config
	envr env.Full
	ds   *baseline.Dataset

	// state guards procedure bodies: they are pure CPU between blocking
	// points, so the critical sections are instantaneous in virtual time.
	state *env.Locker
	locks *lockTable
	// dataNodes is how many data nodes warehouses are sharded over: one
	// per execution node.
	dataNodes int

	sqlNodes []*sqlNode
	next     int
	mu       sync.Mutex

	lockWaits uint64
}

// sqlNode is one SQL-node worker pool.
type sqlNode struct {
	node env.Node
	jobs env.Queue
}

// New builds the engine over the given execution nodes (one SQL node and
// one data node are co-located per machine, as the paper's deployments
// paired them).
func New(cfg Config, envr env.Full, ds *baseline.Dataset, nodes []env.Node) *Engine {
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 1
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	e := &Engine{
		cfg:       cfg,
		envr:      envr,
		ds:        ds,
		state:     env.NewLocker(envr),
		locks:     newLockTable(envr),
		dataNodes: len(nodes),
	}
	for _, n := range nodes {
		sn := &sqlNode{node: n, jobs: envr.NewQueue()}
		e.sqlNodes = append(e.sqlNodes, sn)
		for w := 0; w < sqlWorkers; w++ {
			n.Go("sql-worker", func(ctx env.Ctx) {
				sc := ctx.Trace()
				for {
					v, ok := sn.jobs.Get(ctx)
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

// job carries the submitting transaction's tracing scope so the worker's
// time is attributed to it (sc/enq mirror the voltlike partition jobs).
type job struct {
	fn   func(ctx env.Ctx)
	done env.Future
	sc   trace.Scope
	enq  time.Duration
}

// dataNodeOf maps a row key to its owning data node by warehouse.
func (e *Engine) dataNodeOf(key string) int {
	// Keys look like "d/3/7": the second component is the warehouse.
	parts := strings.SplitN(key, "/", 3)
	w := 0
	if len(parts) >= 2 {
		for _, ch := range parts[1] {
			w = w*10 + int(ch-'0')
		}
	}
	return w % e.dataNodes
}

// run executes one transaction on an SQL node worker.
func (e *Engine) run(ctx env.Ctx, t tpcc.TxType, input any) (bool, error) {
	e.mu.Lock()
	sn := e.sqlNodes[e.next%len(e.sqlNodes)]
	e.next++
	e.mu.Unlock()
	var ok bool
	var err error
	j := &job{done: e.envr.NewFuture()}
	j.fn = func(wctx env.Ctx) { ok, err = e.transact(wctx, t, input) }
	if sc := ctx.Trace(); sc.R != nil {
		j.sc = *sc
		j.enq = ctx.Now()
	}
	sn.jobs.Put(j)
	j.done.Get(ctx)
	return ok, err
}

// transact is the SQL-node transaction driver: lock, fetch, execute, 2PC.
func (e *Engine) transact(ctx env.Ctx, t tpcc.TxType, input any) (bool, error) {
	c := e.cfg.Costs
	ctx.Work(c.SQLOverhead)

	// Plan: determine the access set and acquire row locks in global key
	// order (deadlock-free).
	reads, writes := baseline.AccessSet(e.ds, t, input)
	type lockReq struct {
		key  string
		excl bool
	}
	// Deduplicate (write mode wins) so a transaction never waits on its
	// own lock, then sort for deadlock-free acquisition order.
	mode := make(map[string]bool, len(reads)+len(writes))
	for _, k := range reads {
		if _, ok := mode[k]; !ok {
			mode[k] = false
		}
	}
	for _, k := range writes {
		mode[k] = true
	}
	reqs := make([]lockReq, 0, len(mode))
	for k, excl := range mode {
		reqs = append(reqs, lockReq{key: k, excl: excl})
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].key < reqs[j].key })

	// Row accesses travel to their data nodes in batches, visited in
	// sorted order: the sleeps below are scheduling points, so the visit
	// order is simulation-visible.
	dnRows := make(map[int]int)
	for _, r := range reqs {
		dnRows[e.dataNodeOf(r.key)]++
	}
	participants := det.Keys(dnRows)
	for _, dn := range participants {
		rows := dnRows[dn]
		batches := (rows + c.RowsPerBatch - 1) / c.RowsPerBatch
		for b := 0; b < batches; b++ {
			baseline.SleepNet(ctx, c.NetRTT)
		}
		ctx.Work(time.Duration(rows) * c.PerRow)
	}

	var held []string
	abort := func() {
		for _, k := range held {
			e.locks.unlock(k)
		}
	}
	for _, r := range reqs {
		lockStart := ctx.Now()
		waited, ok := e.locks.lock(ctx, r.key, r.excl, c.LockWaitTimeout)
		baseline.Charge(ctx, trace.CompConflict, ctx.Now()-lockStart)
		if waited {
			e.mu.Lock()
			e.lockWaits++
			e.mu.Unlock()
		}
		if !ok {
			abort()
			return false, nil
		}
		held = append(held, r.key)
	}

	// Execute under the locks. The body is pure CPU, made atomic by the
	// state locker; its cost is charged afterwards.
	stateStart := ctx.Now()
	e.state.Lock(ctx)
	baseline.Charge(ctx, trace.CompConflict, ctx.Now()-stateStart)
	res := baseline.Exec(e.ds, t, input)
	e.state.Unlock()
	nr, nw := res.RowAccessCount()
	ctx.Work(time.Duration(nr+nw) * c.PerRow)

	if res.OK && baseline.IsWrite(t) {
		// Two-phase commit across participants: prepare + commit, one
		// round trip each, plus synchronous fragment replication.
		rounds := 1
		if len(participants) > 1 {
			rounds = 2
		}
		for i := 0; i < rounds; i++ {
			for range participants {
				baseline.SleepNet(ctx, c.NetRTT)
			}
		}
		for range participants {
			for rf := 1; rf < e.cfg.ReplicationFactor; rf++ {
				baseline.SleepNet(ctx, c.ReplicaRTT)
			}
		}
	}
	for _, k := range held {
		e.locks.unlock(k)
	}
	return res.OK, nil
}

// --- tpcc.Engine implementation ---

// NewOrder runs the new-order transaction via row locks and two-phase commit.
func (e *Engine) NewOrder(ctx env.Ctx, in *tpcc.NewOrderInput) (bool, error) {
	return e.run(ctx, tpcc.TxNewOrder, in)
}

// Payment runs the payment transaction via row locks and two-phase commit.
func (e *Engine) Payment(ctx env.Ctx, in *tpcc.PaymentInput) (bool, error) {
	return e.run(ctx, tpcc.TxPayment, in)
}

// OrderStatus runs the order-status transaction via row locks and two-phase commit.
func (e *Engine) OrderStatus(ctx env.Ctx, in *tpcc.OrderStatusInput) (bool, error) {
	return e.run(ctx, tpcc.TxOrderStatus, in)
}

// Delivery runs the delivery transaction via row locks and two-phase commit.
func (e *Engine) Delivery(ctx env.Ctx, in *tpcc.DeliveryInput) (bool, error) {
	return e.run(ctx, tpcc.TxDelivery, in)
}

// StockLevel runs the stock-level transaction via row locks and two-phase commit.
func (e *Engine) StockLevel(ctx env.Ctx, in *tpcc.StockLevelInput) (bool, error) {
	return e.run(ctx, tpcc.TxStockLevel, in)
}
