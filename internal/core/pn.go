package core

import (
	"time"

	"tell/internal/commitmgr"
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/sanitize"
	"tell/internal/store"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/txlog"
	"tell/internal/wire"
)

// BufferStrategy selects how records are buffered on the PN (§5.5).
type BufferStrategy int

const (
	// TB: the transaction buffer only — every transaction caches the
	// records it read for its own lifetime (§5.5.1). This is Tell's
	// default and the best strategy for TPC-C (Figure 11).
	TB BufferStrategy = iota
	// SB: a shared record buffer across all transactions on the PN,
	// validated via version number sets (§5.5.2).
	SB
	// SBVS: the shared buffer with version-set synchronization through
	// the storage system, with records grouped into cache units (§5.5.3).
	SBVS
)

func (b BufferStrategy) String() string {
	switch b {
	case TB:
		return "TB"
	case SB:
		return "SB"
	case SBVS:
		return "SBVS"
	}
	return "?"
}

// Costs models the PN-side CPU time charged per engine step under
// simulation. The defaults are calibrated so that one 4-core PN saturates
// at roughly the paper's single-PN TPC-C throughput (§6.3.1).
type Costs struct {
	Begin    time.Duration // transaction setup
	ReadOp   time.Duration // per record read (decode, visibility)
	WriteOp  time.Duration // per buffered write (encode)
	IndexOp  time.Duration // per index traversal step driven locally
	CommitOp time.Duration // per applied update at commit
	Logic    time.Duration // per transaction application logic
}

// DefaultCosts returns the calibrated PN cost model.
func DefaultCosts() Costs {
	return Costs{
		Begin:    2 * time.Microsecond,
		ReadOp:   3 * time.Microsecond,
		WriteOp:  2 * time.Microsecond,
		IndexOp:  2 * time.Microsecond,
		CommitOp: 3 * time.Microsecond,
		Logic:    20 * time.Microsecond,
	}
}

// Config assembles a PN.
type Config struct {
	// ID names the node; it tags transaction-log entries for recovery.
	ID string
	// Workers is the number of synchronous worker threads (§6.1: "a
	// thread processes a transaction at a time; while waiting for an I/O
	// request to complete, another thread takes over").
	Workers int
	// Buffer selects the record-buffering strategy.
	Buffer BufferStrategy
	// CacheUnitSize groups records per version-set entry under SBVS.
	CacheUnitSize int
	// CacheIndexInner toggles B+tree inner-node caching (§5.3.1).
	CacheIndexInner bool
	// Costs is the CPU model (DefaultCosts if zero).
	Costs Costs
	// SkipWriteValidation is a TEST-ONLY negative control for the
	// history checker: commits apply updates with blind puts instead of
	// LL/SC conditional writes and the running-conflict check of §4.1 is
	// skipped, deliberately permitting lost updates. Never enable it
	// outside a test that expects internal/histcheck to flag anomalies.
	SkipWriteValidation bool
}

func (c *Config) fill() {
	if c.ID == "" {
		c.ID = "pn"
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.CacheUnitSize <= 0 {
		c.CacheUnitSize = 10
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
}

// sharedBufferSize caps the SB/SBVS buffer (entries).
const sharedBufferSize = 1 << 18

// ridRange is how many rids one counter bump reserves per table.
const ridRange = 256

// PN is one processing node.
type PN struct {
	cfg  Config
	envr env.Full
	node env.Node
	sc   *store.Client
	cm   *commitmgr.Client
	log  *txlog.Log
	cat  *Catalog

	shared *sharedBuffer

	mu sanitize.Mutex
	// rec, when non-nil, observes the transaction history (histcheck).
	rec TxnRecorder
	// lastSnap is the snapshot of the most recently started transaction:
	// the Vmax of §5.5.2.
	lastSnap *mvcc.Snapshot
	// rid range cache per table id.
	ridNext map[uint32]uint64
	ridEnd  map[uint32]uint64

	jobs env.Queue

	// Counters.
	commits, aborts uint64
}

// New assembles a processing node on the given execution node. The caller
// supplies the shared-store client, commit-manager client and transport.
func New(cfg Config, envr env.Full, node env.Node, tr transport.Transport, sc *store.Client, cm *commitmgr.Client) *PN {
	cfg.fill()
	pn := &PN{
		cfg:     cfg,
		envr:    envr,
		node:    node,
		sc:      sc,
		cm:      cm,
		log:     txlog.New(sc),
		cat:     NewCatalog(sc, cfg.CacheIndexInner),
		ridNext: make(map[uint32]uint64),
		ridEnd:  make(map[uint32]uint64),
		jobs:    envr.NewQueue(),
	}
	if cfg.Buffer != TB {
		pn.shared = newSharedBuffer(sharedBufferSize)
	}
	pn.mu.SetName("core.PN.mu")
	return pn
}

// ID returns the node's name.
func (pn *PN) ID() string { return pn.cfg.ID }

// Catalog returns the PN's table catalog.
func (pn *PN) Catalog() *Catalog { return pn.cat }

// Costs returns the PN's CPU cost model (workload code charges Logic).
func (pn *PN) Costs() Costs { return pn.cfg.Costs }

// Store returns the underlying store client (examples use it for scans).
func (pn *PN) Store() *store.Client { return pn.sc }

// Stats returns (commits, aborts).
func (pn *PN) Stats() (commits, aborts uint64) {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	return pn.commits, pn.aborts
}

// StartWorkers launches the synchronous worker pool. Transactions submitted
// with Execute run on these workers; at most Workers transactions are in
// flight at once on this PN.
func (pn *PN) StartWorkers() {
	for i := 0; i < pn.cfg.Workers; i++ {
		pn.node.Go("worker", pn.workerLoop)
	}
}

// job is one queued transaction with a completion future. The submitter's
// tracing scope rides along so the worker attributes its time (and spans)
// to the submitting transaction. The worker leaves its outcome in err and
// fin before it sets done.
type job struct {
	fn   func(ctx env.Ctx, txn *Txn) error
	done env.Future
	sc   trace.Scope
	enq  time.Duration // submission time, for queue-wait attribution
	fin  *commitmgr.Finish
	err  error
}

func (pn *PN) workerLoop(ctx env.Ctx) {
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
			pn.runJob(ctx, j)
			*sc = saved
		} else {
			pn.runJob(ctx, j)
		}
		j.done.Set(nil)
	}
}

// runJob runs one transaction up to its commit flag on the worker.
func (pn *PN) runJob(ctx env.Ctx, j *job) {
	txn, err := pn.Begin(ctx)
	if err != nil {
		j.err = err
		return
	}
	if err := j.fn(ctx, txn); err != nil {
		if txn.State() == StateRunning {
			txn.Abort(ctx)
		}
		j.err = err
		return
	}
	j.fin, j.err = txn.commit(ctx)
}

// Execute runs fn as one transaction on one of the PN's workers (§6.1's
// synchronous processing model): Begin, fn, and Commit. If fn fails, the
// transaction is aborted unless fn already ended it, and fn's error is
// returned; otherwise Commit's. The worker holds the transaction up to its
// commit flag and the queueing of the commit manager's finish note, then
// takes its next job; the caller waits for the manager's acknowledgement,
// so a transaction the caller begins after Execute returns sees this one.
// An abort notifies the manager on the worker.
func (pn *PN) Execute(ctx env.Ctx, fn func(ctx env.Ctx, txn *Txn) error) error {
	j := &job{fn: fn, done: pn.envr.NewFuture()}
	if sc := ctx.Trace(); sc.R != nil {
		j.sc = *sc
		j.enq = ctx.Now()
		sc.R.Counter(pn.node.Name(), "jobqueue", int64(pn.jobs.Len()+1))
	}
	pn.jobs.Put(j)
	j.done.Get(ctx)
	if j.err != nil {
		return j.err
	}
	return j.fin.Wait(ctx)
}

// Stop closes the job queue; workers drain and exit.
func (pn *PN) Stop() { pn.jobs.Close() }

// Serve registers the PN on the transport so the management node's failure
// detector can ping it. tr is the transport the PN was built with.
func (pn *PN) Serve(tr transport.Transport) error {
	return tr.Listen(pn.cfg.ID, pn.node, func(ctx env.Ctx, req []byte) []byte {
		if wire.PeekKind(req) == wire.KindPing {
			return []byte{byte(wire.KindPong)}
		}
		return []byte{byte(wire.KindInvalid)}
	})
}

// allocRid reserves a fresh rid for the table (range-cached).
func (pn *PN) allocRid(ctx env.Ctx, tableID uint32) (uint64, error) {
	pn.mu.Lock()
	if pn.ridNext[tableID] != 0 && pn.ridNext[tableID] <= pn.ridEnd[tableID] {
		rid := pn.ridNext[tableID]
		pn.ridNext[tableID]++
		pn.mu.Unlock()
		return rid, nil
	}
	pn.mu.Unlock()
	hi, err := pn.sc.CounterAdd(ctx, relational.RidCounterKey(tableID), ridRange)
	if err != nil {
		return 0, err
	}
	pn.mu.Lock()
	lo := uint64(hi) - ridRange + 1
	if lo > pn.ridEnd[tableID] {
		pn.ridNext[tableID], pn.ridEnd[tableID] = lo, uint64(hi)
	}
	rid := pn.ridNext[tableID]
	pn.ridNext[tableID]++
	pn.mu.Unlock()
	return rid, nil
}
