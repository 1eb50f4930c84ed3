// Package tell is a distributed shared-data SQL-style database: a Go
// implementation of the system described in "On the Design and Scalability
// of Distributed Shared-Data Databases" (Loesing, Pilman, Etter, Kossmann;
// SIGMOD 2015).
//
// The architecture decouples transactional query processing from data
// storage: autonomous processing nodes (PNs) execute ACID transactions
// under distributed snapshot isolation against a shared in-memory record
// store, detecting write-write conflicts with load-link/store-conditional
// operations instead of locks. Any PN can run any transaction — there is
// no partitioning visible to the application — so processing and storage
// scale out independently and elastically.
//
// This package is the embedded public API: it assembles a complete cluster
// (storage nodes, commit managers, processing nodes, management nodes)
// inside the current process on real goroutines. The internal packages also
// run the identical engine on a deterministic discrete-event simulator
// (used by the benchmark harness, see DESIGN.md) and over TCP (cmd/telld).
//
// Quick start:
//
//	cluster, _ := tell.Start(tell.Options{StorageNodes: 3, ReplicationFactor: 2})
//	defer cluster.Close()
//	db, _ := cluster.NewProcessingNode("pn1")
//	db.CreateTable(&tell.Schema{ ... })
//	tx, _ := db.Begin()
//	rid, _ := tx.Insert(table, tell.Row{tell.I64(1), tell.Str("hello")})
//	tx.Commit()
package tell

import (
	"errors"
	"fmt"
	"io"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/recovery"
	"tell/internal/relational"
	"tell/internal/sanitize"
	"tell/internal/store"
	"tell/internal/trace"
	"tell/internal/transport"
)

// Re-exported schema and value types.
type (
	// Schema describes a table: columns, primary key, secondary indexes.
	Schema = relational.TableSchema
	// Column is one table column.
	Column = relational.Column
	// Index describes a secondary index over column positions.
	Index = relational.IndexSchema
	// Row is one tuple, positionally matching the schema's columns.
	Row = relational.Row
	// Value is one typed column value.
	Value = relational.Value
)

// Column types.
const (
	TInt64   = relational.TInt64
	TFloat64 = relational.TFloat64
	TString  = relational.TString
	TBytes   = relational.TBytes
	TBool    = relational.TBool
)

// Value constructors.
var (
	I64   = relational.I64
	F64   = relational.F64
	Str   = relational.Str
	Bytes = relational.Bytes
	Bool  = relational.BoolV
	Null  = relational.Null
)

// Errors surfaced by the transaction API.
var (
	// ErrConflict: the transaction lost a write-write conflict and was
	// rolled back; retry it.
	ErrConflict = core.ErrConflict
	// ErrDuplicateKey: a primary-key violation aborted the commit.
	ErrDuplicateKey = core.ErrDuplicateKey
	// ErrTxnDone: the transaction already committed or aborted.
	ErrTxnDone = core.ErrTxnDone
)

// Options configure an embedded cluster.
type Options struct {
	// StorageNodes is the number of storage nodes (default 3).
	StorageNodes int
	// ReplicationFactor is the number of copies per record, master
	// included (default 1).
	ReplicationFactor int
	// CommitManagers is the size of the commit-manager fleet (default 1).
	CommitManagers int
	// Seed drives internal randomness (default 1).
	Seed int64
	// Telemetry enables the windowed telemetry pipeline: per-range heat
	// tracking on every storage node and handler-latency series, readable
	// via Cluster.HeatRows and Cluster.WriteMetrics. Off by default — the
	// disabled path costs nothing on the hot paths.
	Telemetry bool
}

func (o *Options) fill() {
	if o.StorageNodes <= 0 {
		o.StorageNodes = 3
	}
	if o.ReplicationFactor <= 0 {
		o.ReplicationFactor = 1
	}
	if o.CommitManagers <= 0 {
		o.CommitManagers = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Cluster is an embedded shared-data database cluster.
type Cluster struct {
	net   *transport.LocalNet
	dep   *deploy.Deployment
	pnMgr *recovery.Manager
	// mgmtStore and mgmtCM are the PN-failure manager's clients.
	mgmtStore *store.Client
	mgmtCM    *commitmgr.Client
	obs       *obs.Pipeline // nil unless Options.Telemetry

	mu     sanitize.Mutex
	dbs    map[string]*DB
	closed bool
}

// Start assembles and starts an embedded cluster.
func Start(opts Options) (*Cluster, error) {
	opts.fill()
	envr := env.NewReal(opts.Seed)
	c := &Cluster{
		net: transport.NewLocalNet(),
		dbs: make(map[string]*DB),
	}
	c.mu.SetName("tell.Cluster.mu")
	if opts.Telemetry {
		// Counters-only tracer feeding the flight recorder's tap plus the
		// windowed pipeline; every storage node gets a heat tracker.
		rec := trace.NewCounters(envr.Now)
		env.SetTracer(envr, rec)
		c.obs = obs.New(obs.Config{AdaptiveOutliers: true}, envr.Now)
		rec.SetTap(c.obs.Flight())
	}
	dep, err := deploy.Build(envr, c.net, deploy.Spec{
		Storage: store.ClusterConfig{
			NumNodes:          opts.StorageNodes,
			ReplicationFactor: opts.ReplicationFactor,
		},
		CMs: opts.CommitManagers,
		Obs: c.obs,
	})
	if err != nil {
		return nil, err
	}
	if err := dep.Start(); err != nil {
		return nil, err
	}
	c.dep = dep
	mgmtNode := envr.NewNode("pn-mgmt", deploy.CMCores)
	c.mgmtStore = dep.Storage.NewClient(mgmtNode)
	c.mgmtCM = commitmgr.NewClient(envr, mgmtNode, c.net, dep.CMAddrs)
	c.pnMgr = recovery.NewManager(envr, mgmtNode, c.net, c.mgmtStore, c.mgmtCM)
	c.pnMgr.Start()
	return c, nil
}

// AddStorageNode adds a fresh, empty storage node to the running cluster —
// the storage-side elastic scale-out. The node serves immediately but
// masters nothing until Rebalance (or the autonomic rebalancer) migrates
// ranges onto it.
func (c *Cluster) AddStorageNode(addr string) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return errors.New("tell: cluster closed")
	}
	c.mu.Unlock()
	sn, err := c.dep.Storage.AddStorageNode(addr)
	if err != nil {
		return err
	}
	if c.obs != nil {
		sn.SetObs(c.obs)
	}
	return nil
}

// Rebalance runs forced placement passes — live range migrations under
// traffic — until the cluster's load view is balanced, and returns how many
// split/migrate actions ran. Transactions keep executing throughout; ones
// caught mid-cutover retry transparently on the new partition map.
func (c *Cluster) Rebalance() (int, error) {
	ctx, ok := env.DetachedCtx(c.dep.Storage.Manager.Node())
	if !ok {
		return 0, errors.New("tell: rebalance requires the real environment")
	}
	moves := 0
	best := 1.0
	stall := 0
	for moves < 64 {
		acted, err := c.dep.Storage.Manager.RebalanceOnce(ctx)
		if err != nil {
			return moves, err
		}
		if !acted {
			return moves, nil
		}
		moves++
		// Convergence at the achievable granularity: some hotspots (an
		// append-frontier log range, a single mega-hot key) cannot be
		// spread by any split or migration, so the policy ratio may never
		// be met. Stop once several consecutive actions fail to reduce the
		// hottest node's share of total load.
		if share := c.dep.Storage.Manager.HotShare(); share < best-0.01 {
			best, stall = share, 0
		} else if stall++; stall >= 4 {
			return moves, nil
		}
		// The controller ranks ranges by ops since its previous pass, so
		// give live traffic one policy interval to land before planning the
		// next action — back-to-back passes would see an empty delta and
		// fall back to count balancing.
		ctx.Sleep(store.RebalanceInterval)
	}
	return moves, nil
}

// Close shuts the cluster down. In-flight transactions may fail.
func (c *Cluster) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	c.pnMgr.Stop()
	c.dep.Stop()
	c.mgmtStore.Close()
	c.mgmtCM.Close()
}

// HeatRow is one (storage node, partition range) activity row from the
// telemetry pipeline: all-time operation totals plus activity over the
// recent retention horizon — the feed a placement controller uses to spot
// hot ranges.
type HeatRow struct {
	Node       string
	Range      uint64
	Reads      int64
	Writes     int64
	Conflicts  int64
	ReadBytes  int64
	WriteBytes int64
	// RecentOps and RecentLat cover the retained window horizon only.
	RecentOps int64
	RecentLat time.Duration
}

// HeatRows returns the cluster-wide per-range heatmap, hottest (most
// recently active) ranges first. Empty unless Options.Telemetry is set.
func (c *Cluster) HeatRows() []HeatRow {
	rows := c.obs.HeatRows()
	if len(rows) == 0 {
		return nil
	}
	obs.SortHeatByRecent(rows)
	out := make([]HeatRow, len(rows))
	for i, r := range rows {
		out[i] = HeatRow{
			Node:       r.Node,
			Range:      r.Range,
			Reads:      r.Total.Reads,
			Writes:     r.Total.Writes,
			Conflicts:  r.Total.Conflicts,
			ReadBytes:  r.Total.ReadBytes,
			WriteBytes: r.Total.WriteBytes,
			RecentOps:  r.Recent.Ops(),
			RecentLat:  r.Recent.MeanLat(),
		}
	}
	return out
}

// WriteMetrics writes the cluster's telemetry in Prometheus text format
// (latency series, heat gauges, SLO breach counters, flight-recorder
// state). A no-op unless Options.Telemetry is set.
func (c *Cluster) WriteMetrics(w io.Writer) error {
	if c.obs == nil {
		return nil
	}
	return c.obs.WritePrometheus(w, c.obs.Now())
}

// NewProcessingNode adds a processing node to the cluster — the elastic
// scale-out operation of the shared-data architecture: the new node can
// immediately execute any transaction on all data, with no repartitioning.
func (c *Cluster) NewProcessingNode(id string) (*DB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("tell: cluster closed")
	}
	if _, ok := c.dbs[id]; ok {
		return nil, fmt.Errorf("tell: processing node %q exists", id)
	}
	pn := c.dep.AddPN(id)
	if err := pn.Serve(c.net); err != nil {
		return nil, err
	}
	c.pnMgr.Watch(id)
	ctx, _ := env.DetachedCtx(c.dep.PNNodes[len(c.dep.PNNodes)-1])
	db := &DB{cluster: c, pn: pn, ctx: ctx}
	c.dbs[id] = db
	return db, nil
}

// DB is the handle to one processing node.
type DB struct {
	cluster *Cluster
	pn      *core.PN
	ctx     env.Ctx
}

// Table is an opened table handle.
type Table struct {
	info *core.TableInfo
}

// Name returns the table name.
func (t *Table) Name() string { return t.info.Schema.Name }

// Schema returns the table definition.
func (t *Table) Schema() *Schema { return t.info.Schema }

// CreateTable registers a table in the shared catalog (idempotent across
// processing nodes: the first creator wins, others open it).
func (db *DB) CreateTable(s *Schema) (*Table, error) {
	info, err := db.pn.Catalog().CreateTable(db.ctx, s)
	if err != nil {
		return nil, err
	}
	return &Table{info: info}, nil
}

// OpenTable opens an existing table.
func (db *DB) OpenTable(name string) (*Table, error) {
	info, err := db.pn.Catalog().OpenTable(db.ctx, name)
	if err != nil {
		return nil, err
	}
	return &Table{info: info}, nil
}

// Begin starts a transaction under snapshot isolation.
func (db *DB) Begin() (*Tx, error) {
	txn, err := db.pn.Begin(db.ctx)
	if err != nil {
		return nil, err
	}
	return &Tx{inner: txn, ctx: db.ctx}, nil
}

// Transact runs fn in a transaction, retrying write-write conflicts with
// randomized exponential backoff. fn returning an error aborts the
// transaction.
func (db *DB) Transact(fn func(tx *Tx) error) error {
	const attempts = 32
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// Randomized backoff keeps two hot writers from re-colliding
			// in lockstep.
			backoff := time.Duration(1+db.ctx.Rand().Intn(1<<uint(min(attempt, 8)))) * 100 * time.Microsecond
			db.ctx.Sleep(backoff)
		}
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		if err := fn(tx); err != nil {
			if tx.inner.State() == core.StateRunning {
				tx.Abort()
			}
			if err == ErrConflict {
				continue
			}
			return err
		}
		switch err := tx.Commit(); err {
		case nil:
			return nil
		case ErrConflict:
			continue
		default:
			return err
		}
	}
	return ErrConflict
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Stats returns the node's (commits, aborts).
func (db *DB) Stats() (commits, aborts uint64) { return db.pn.Stats() }

// Tx is one transaction.
type Tx struct {
	inner *core.Txn
	ctx   env.Ctx
}

// Read returns the row with the given record id.
func (tx *Tx) Read(t *Table, rid uint64) (Row, bool, error) {
	return tx.inner.Read(tx.ctx, t.info, rid)
}

// Get looks a row up by primary key.
func (tx *Tx) Get(t *Table, pk ...Value) (rid uint64, row Row, found bool, err error) {
	return tx.inner.LookupPK(tx.ctx, t.info, pk...)
}

// Insert adds a row and returns its record id.
func (tx *Tx) Insert(t *Table, row Row) (uint64, error) {
	return tx.inner.Insert(tx.ctx, t.info, row)
}

// Update replaces the row with the given record id.
func (tx *Tx) Update(t *Table, rid uint64, row Row) (found bool, err error) {
	return tx.inner.Update(tx.ctx, t.info, rid, row)
}

// Delete removes the row with the given record id.
func (tx *Tx) Delete(t *Table, rid uint64) (found bool, err error) {
	return tx.inner.Delete(tx.ctx, t.info, rid)
}

// Entry is one row yielded by a scan.
type Entry struct {
	Rid uint64
	Row Row
}

// ScanPK visits rows with lo <= primary key < hi in key order; nil hi means
// unbounded. fn returning false stops the scan.
func (tx *Tx) ScanPK(t *Table, lo, hi []Value, fn func(e Entry) bool) error {
	return tx.inner.ScanPK(tx.ctx, t.info, lo, hi, func(e core.IndexEntry) bool {
		return fn(Entry{Rid: e.Rid, Row: e.Row})
	})
}

// ScanIndex visits rows via a secondary index within [lo, hi).
func (tx *Tx) ScanIndex(t *Table, index string, lo, hi []Value, fn func(e Entry) bool) error {
	return tx.inner.ScanIndex(tx.ctx, t.info, index, lo, hi, func(e core.IndexEntry) bool {
		return fn(Entry{Rid: e.Rid, Row: e.Row})
	})
}

// ScanIndexPrefix visits rows whose indexed columns equal prefix.
func (tx *Tx) ScanIndexPrefix(t *Table, index string, prefix []Value, fn func(e Entry) bool) error {
	return tx.inner.ScanIndexPrefix(tx.ctx, t.info, index, prefix, func(e core.IndexEntry) bool {
		return fn(Entry{Rid: e.Rid, Row: e.Row})
	})
}

// ScanTable streams every visible row of the table — the analytical
// full-scan path; it can run on a dedicated PN against live data (the
// paper's mixed-workload scenario).
func (tx *Tx) ScanTable(t *Table, fn func(rid uint64, row Row) bool) error {
	return tx.inner.ScanTable(tx.ctx, t.info, fn)
}

// Commit finishes the transaction; ErrConflict means a write-write conflict
// rolled it back.
func (tx *Tx) Commit() error { return tx.inner.Commit(tx.ctx) }

// Abort rolls the transaction back.
func (tx *Tx) Abort() error { return tx.inner.Abort(tx.ctx) }

// CmpOp is a comparison operator for push-down predicates.
type CmpOp = store.CmpOp

// Push-down comparison operators.
const (
	EQ = store.CmpEQ
	NE = store.CmpNE
	LT = store.CmpLT
	LE = store.CmpLE
	GT = store.CmpGT
	GE = store.CmpGE
)

// ScanTableWhere runs an analytical scan with the selection predicate
// (column col compared against val) and projection (column positions; nil =
// all) evaluated inside the storage nodes, so only matching projected rows
// cross the network — the paper's §5.2 push-down direction for mixed
// workloads. Rows passed to fn follow the projected column order.
func (tx *Tx) ScanTableWhere(t *Table, col int, op CmpOp, val Value, proj []int, fn func(rid uint64, row Row) bool) error {
	pred := &store.Predicate{Col: col, Op: op, Val: val}
	return tx.inner.ScanTableFiltered(tx.ctx, t.info, pred, proj, fn)
}
