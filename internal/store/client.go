package store

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/wire"
)

// Client errors.
var (
	// ErrNotFound: the key does not exist.
	ErrNotFound = errors.New("store: key not found")
	// ErrConflict: the LL/SC store-conditional failed — the cell changed
	// since it was load-linked. This is the conflict signal the MVCC
	// protocol is built on (§4.1).
	ErrConflict = errors.New("store: conditional write conflict")
	// ErrUnavailable: the owning partition could not be reached after
	// retries and fail-over.
	ErrUnavailable = errors.New("store: partition unavailable")
)

// Client is the storage-system client library used by processing nodes. It
// caches the partition map, routes operations to partition masters, retries
// through fail-overs, and — centrally for performance (§5.1) — batches
// operations aggressively: all operations issued concurrently on one
// processing node toward the same storage node coalesce into single
// requests ("batching ... is also used to combine concurrent read
// operations from different transactions on the same PN").
type Client struct {
	envr    env.Full
	node    env.Node
	mgrAddr string

	// MaxBatch bounds how many ops one request may carry.
	MaxBatch int
	// BatchWindow bounds how long a sender may linger, after draining the
	// queue, to let concurrent transactions widen the batch. The actual
	// wait adapts to load: it scales with an EWMA of recent batch sizes,
	// reaching BatchWindow once batches average a quarter of MaxBatch and
	// collapsing to zero when traffic is sparse, so idle workloads pay no
	// added latency. 0 disables lingering (the legacy greedy-drain
	// trigger: send as soon as the queue is empty). The window only pays
	// when it is small against the link round trip — the default suits
	// kernel-TCP networks; the experiment harness derives it from the
	// simulated link latency instead (a quarter of one-way).
	BatchWindow time.Duration
	// Senders is how many requests may be in flight per storage node
	// (pipelined batching): one sender would serialize all traffic to a
	// node behind a single round trip.
	Senders int
	// Resil drives transport-level retries (identical request bytes,
	// capped backoff with seeded jitter) and the per-endpoint circuit
	// breaker. Write retries are safe because every write op carries an
	// idempotency token the storage node dedups on.
	Resil *resil.Retrier

	conns *transport.ConnSet

	mu       sanitize.Mutex
	pmap     *PartitionMap
	batchers map[string]*batcher
	closed   bool
	seq      uint64 // idempotency-token sequence (per client, never reused)

	// clientID names this client in idempotency tokens; unique per
	// client instance so two clients on one node cannot collide.
	clientID string

	// Stats
	nBatches, nOps uint64
}

const (
	// reroutes bounds re-routing attempts per operation.
	reroutes = 10
	// rerouteDelay is slept between re-routing attempts (virtual time
	// under sim).
	rerouteDelay = 2 * time.Millisecond
)

// clientInstances numbers client instances for token identity, per
// environment: two clients on one node must not collide, but a fresh
// environment (one simulation run) must restart the numbering — the ids go
// into wire idempotency tokens, and a process-global counter would make a
// run's message bytes (and so its simulated timing) depend on how many runs
// preceded it in the same process. Entries are never deleted; environments
// are few and small per process.
var (
	clientInstMu sync.Mutex
	clientInst   = make(map[env.Env]uint64)
)

func nextClientID(envr env.Env, node string) string {
	clientInstMu.Lock()
	defer clientInstMu.Unlock()
	clientInst[envr]++
	return fmt.Sprintf("%s#%d", node, clientInst[envr])
}

// NewClient creates a client on the given node. mgrAddr is the management
// node used as the lookup service.
func NewClient(envr env.Full, node env.Node, tr transport.Transport, mgrAddr string) *Client {
	r := resil.NewRetrier()
	r.Breakers = resil.NewBreakerSet(3, 10*time.Millisecond)
	return &Client{
		envr:        envr,
		node:        node,
		mgrAddr:     mgrAddr,
		MaxBatch:    64,
		BatchWindow: 20 * time.Microsecond,
		Senders:     4,
		Resil:       r,
		conns:       transport.NewConnSet(tr, node),
		batchers:    make(map[string]*batcher),
		clientID:    nextClientID(envr, node.Name()),
	}
}

// nextSeq issues the next idempotency token for a write op.
func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	c.seq++
	s := c.seq
	c.mu.Unlock()
	return s
}

// ErrClosed is returned by operations issued after Close.
var ErrClosed = errors.New("store: client closed")

// Close shuts down the client's batcher activities and connections.
// In-flight operations may fail; operations issued afterwards fail with
// ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	// Closing wakes blocked batcher activities; do it in sorted order so
	// the kernel sees the same wake-up sequence every run.
	for _, addr := range det.Keys(c.batchers) {
		c.batchers[addr].q.Close()
	}
	c.conns.Close()
}

// Ops returns the number of storage operations issued.
func (c *Client) Ops() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nOps
}

// Batches returns the number of storage requests sent; Ops/Batches is the
// achieved batching factor.
func (c *Client) Batches() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nBatches
}

// refreshMap fetches the partition map from the lookup service.
func (c *Client) refreshMap(ctx env.Ctx) error {
	conn, err := c.conns.Get(c.mgrAddr)
	if err != nil {
		return err
	}
	var pm *PartitionMap
	_, _, err = c.Resil.Call(ctx, resil.ClassMeta, c.mgrAddr, conn, encodeMetaGetMap(), func(raw []byte) (err error) {
		pm, err = decodeMapResp(raw)
		return resil.Permanent(err)
	})
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.pmap == nil || pm.Epoch > c.pmap.Epoch {
		c.pmap = pm
	}
	c.mu.Unlock()
	return nil
}

// FetchMap fetches the current partition map from the lookup service and
// caches it (node bootstrap uses this).
func (c *Client) FetchMap(ctx env.Ctx) (*PartitionMap, error) {
	if err := c.refreshMap(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pmap == nil {
		return nil, ErrUnavailable
	}
	return c.pmap.Clone(), nil
}

// installMap decodes a partition map piggybacked on a store response (see
// StoreResponse.Map) and installs it if newer than the cache. This is how
// clients converge on a migration cutover without a lookup-service round
// trip. A decode failure is ignored: the piggyback is an optimization and
// the lookup service stays authoritative.
func (c *Client) installMap(raw []byte) {
	pm, err := DecodePartitionMap(raw)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.pmap == nil || pm.Epoch > c.pmap.Epoch {
		c.pmap = pm
	}
	c.mu.Unlock()
}

// cachedEpoch returns the epoch of the cached map (0 = no map yet).
func (c *Client) cachedEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pmap == nil {
		return 0
	}
	return c.pmap.Epoch
}

// getMap returns the cached map, fetching it on first use. Every operation
// starts here, so this is also where a closed client turns callers away.
func (c *Client) getMap(ctx env.Ctx) (*PartitionMap, error) {
	c.mu.Lock()
	pm, closed := c.pmap, c.closed
	c.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if pm != nil {
		return pm, nil
	}
	if err := c.refreshMap(ctx); err != nil {
		return nil, err
	}
	c.mu.Lock()
	pm = c.pmap
	c.mu.Unlock()
	if pm == nil {
		return nil, ErrUnavailable
	}
	return pm, nil
}

// batchReply carries one op's outcome through a future, along with the
// timing split the batcher observed (zero when untraced).
type batchReply struct {
	res   wire.Result
	err   error
	qwait time.Duration // time queued before the batch left
	net   time.Duration // modelled wire time of the carrying batch
}

// pendingOp is one queued operation inside a batcher. The submitting
// transaction's span rides along so the batch's network flow is parented
// on a real transaction (the first op's span wins for the whole batch).
type pendingOp struct {
	op   wire.Op
	fut  env.Future
	span trace.SpanID
	enq  time.Duration
}

// batcher serializes traffic to one storage node: while one request is in
// flight, newly issued operations queue up and leave in the next request.
// This is the paper's natural batching across transactions (§5.1).
type batcher struct {
	c    *Client
	addr string
	q    env.Queue

	mu sanitize.Mutex
	// sizeEWMA8 is an exponentially weighted moving average of batch sizes
	// in fixed-point (×8): after observing size n it becomes
	// ewma - ewma/8 + n. Senders read it to decide how long to linger.
	sizeEWMA8 uint64
}

// observe folds a sent batch's size into the load estimate.
func (b *batcher) observe(n int) {
	b.mu.Lock()
	b.sizeEWMA8 += uint64(n) - b.sizeEWMA8/8
	b.mu.Unlock()
}

// window returns how long a sender should linger for more operations after
// the queue runs dry: zero when adaptive batching is off or recent batches
// averaged under two ops (idle — lingering would only add latency), scaling
// linearly up to BatchWindow as average size approaches MaxBatch/4.
func (b *batcher) window() time.Duration {
	bw := b.c.BatchWindow
	if bw <= 0 {
		return 0
	}
	b.mu.Lock()
	e8 := b.sizeEWMA8
	b.mu.Unlock()
	if e8 < 16 { // average batch < 2 ops
		return 0
	}
	full8 := uint64(b.c.MaxBatch) * 8 // EWMA value meaning "batches are full"
	if full8 == 0 {
		return 0
	}
	scaled := e8 * 4 // full window at a quarter of MaxBatch
	if scaled > full8 {
		scaled = full8
	}
	return time.Duration(uint64(bw) * scaled / full8)
}

// enqueue hands p to the batcher for addr, starting it on first use. The
// put happens under c.mu, as Close's closing of the queues does: a closed
// queue drops what is put on it, so an op that slipped in after Close would
// leave its future unset for ever.
func (c *Client) enqueue(addr string, p *pendingOp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	b, ok := c.batchers[addr]
	if !ok {
		b = &batcher{c: c, addr: addr, q: c.envr.NewQueue()}
		b.mu.SetName("store.batcher.mu")
		c.batchers[addr] = b
		n := c.Senders
		if n < 1 {
			n = 1
		}
		for i := 0; i < n; i++ {
			c.node.Go("batcher:"+addr, b.run)
		}
	}
	b.q.Put(p)
	return nil
}

func (b *batcher) run(ctx env.Ctx) {
	// One response struct per sender, reused across batches: DecodeFrom
	// overwrites it in place, so steady state decodes without allocating.
	var resp storeReply
	for {
		v, ok := b.q.Get(ctx)
		if !ok {
			return
		}
		batch := b.drain([]*pendingOp{v.(*pendingOp)})
		// Adaptive deadline window: when recent traffic suggests more ops
		// are coming, hold the batch briefly so concurrent transactions
		// can widen it instead of paying their own round trip.
		if w := b.window(); w > 0 && len(batch) < b.c.MaxBatch {
			deadline := ctx.Now() + w
			for len(batch) < b.c.MaxBatch {
				rem := deadline - ctx.Now()
				if rem <= 0 {
					break
				}
				v, ok, timedOut := b.q.GetTimeout(ctx, rem)
				if timedOut || !ok {
					break
				}
				batch = b.drain(append(batch, v.(*pendingOp)))
			}
		}
		b.observe(len(batch))
		b.send(ctx, batch, &resp)
	}
}

// drain adds what is already queued to batch, up to MaxBatch, without
// waiting: the senders share the queue, so whatever a peer takes first is
// simply not in this batch.
func (b *batcher) drain(batch []*pendingOp) []*pendingOp {
	for len(batch) < b.c.MaxBatch {
		v, ok := b.q.TryGet()
		if !ok {
			break
		}
		batch = append(batch, v.(*pendingOp))
	}
	return batch
}

// errOverload is the client-side face of wire.StatusOverload: the server's
// admission gate shed the request before execution, so a backoff-and-resend
// of the identical bytes is always safe.
var errOverload = errors.New("store: server overloaded")

// storeReply is a store response decoded in place by its Retrier.Call check:
// an undecodable response is permanent, a shed one is resent.
type storeReply struct{ wire.StoreResponse }

func (r *storeReply) check(raw []byte) error {
	if err := r.DecodeFrom(raw); err != nil {
		return resil.Permanent(err)
	}
	if r.Status == wire.StatusOverload {
		return errOverload
	}
	return nil
}

// batchClass picks the retry policy for a batch: the write policy as soon
// as one op mutates (tokens make that safe), the read policy otherwise.
func batchClass(ops []wire.Op) resil.Class {
	for i := range ops {
		if ops[i].Code.IsWrite() {
			return resil.ClassWrite
		}
	}
	return resil.ClassRead
}

func (b *batcher) send(ctx env.Ctx, batch []*pendingOp, resp *storeReply) {
	req := &wire.StoreRequest{Client: b.c.clientID, Ops: make([]wire.Op, len(batch))}
	for i, p := range batch {
		req.Ops[i] = p.op
	}
	b.c.mu.Lock()
	if b.c.pmap != nil {
		req.Epoch = b.c.pmap.Epoch
	}
	b.c.nBatches++
	b.c.nOps += uint64(len(batch))
	b.c.mu.Unlock()

	// Parent this batch's network flow on the first traced op's span, so
	// the exported trace stitches the transaction to the storage node even
	// though the round trip runs on the batcher's own activity.
	sc := ctx.Trace()
	var sendAt time.Duration
	if sc.R.Enabled() {
		sc.Span = 0
		for _, p := range batch {
			if p.span != 0 {
				sc.Span = p.span
				break
			}
		}
		sendAt = ctx.Now()
	}

	conn, err := b.c.conns.Get(b.addr)
	if err == nil {
		// Every attempt carries the same idempotency tokens, so the node
		// executes each write at most once no matter how many copies arrive.
		enc := req.Encode()
		var raw []byte
		var retried bool
		raw, retried, err = b.c.Resil.Call(ctx, batchClass(req.Ops), b.addr, conn, enc, resp.check)
		if err == nil {
			if len(resp.Map) > 0 {
				b.c.installMap(resp.Map)
			}
			if len(resp.Results) != len(batch) {
				err = fmt.Errorf("store: %d results for %d ops", len(resp.Results), len(batch))
			} else {
				var net time.Duration
				if sc.R.Enabled() {
					if tt, ok := conn.(transport.TransferTimer); ok {
						net = tt.TransferTime(len(enc)) + tt.TransferTime(len(raw))
					}
				}
				for i, p := range batch {
					rep := batchReply{res: resp.Results[i]}
					if retried {
						// A previous attempt may have been applied with its
						// response lost; conflicts are ambiguous (see
						// Result.WasRetried). The dedup window resolves the
						// outcome, but a fail-over loses it, so stay
						// conservative.
						rep.res.MarkRetried()
					}
					if sc.R.Enabled() {
						rep.qwait = sendAt - p.enq
						rep.net = net
					}
					p.fut.Set(rep)
				}
				return
			}
		}
	}
	for _, p := range batch {
		p.fut.Set(batchReply{err: err})
	}
}

// execBatch sends ops grouped by destination and waits for all outcomes.
// Results align with ops by index. Transport failures surface as results
// with StatusUnavailable so the retry loop treats them uniformly.
func (c *Client) execBatch(ctx env.Ctx, ops []wire.Op) ([]wire.Result, error) {
	pm, err := c.getMap(ctx)
	if err != nil {
		return nil, err
	}
	results := make([]wire.Result, len(ops))
	futs := make([]env.Future, len(ops))
	for i := range ops {
		part, ok := pm.LookupKey(ops[i].Key)
		if !ok || part.Master == "" {
			results[i] = wire.Result{Status: wire.StatusUnavailable}
			continue
		}
		op, addr := ops[i], part.Master
		// Circuit-broken master: route reads to a healthy replica rather
		// than waiting out the breaker. Replication is synchronous, so a
		// replica read observes every acknowledged write.
		if op.Code == wire.OpGet && c.Resil.Breakers.Open(addr, ctx.Now()) {
			for _, rep := range part.Replicas {
				if !c.Resil.Breakers.Open(rep, ctx.Now()) {
					op.Replica = true
					addr = rep
					break
				}
			}
		}
		p := &pendingOp{op: op, fut: c.envr.NewFuture()}
		if sc := ctx.Trace(); sc.R != nil {
			p.span = sc.Span
			p.enq = ctx.Now()
		}
		if err := c.enqueue(addr, p); err != nil {
			return nil, err
		}
		futs[i] = p.fut
	}
	sc := ctx.Trace()
	var waitStart, maxQwait, maxNet time.Duration
	waiting := false
	for i, f := range futs {
		if f == nil {
			continue
		}
		if sc.Agg != nil && !waiting {
			waiting = true
			waitStart = ctx.Now()
		}
		rep := f.Get(ctx).(batchReply)
		if rep.qwait > maxQwait {
			maxQwait = rep.qwait
		}
		if rep.net > maxNet {
			maxNet = rep.net
		}
		if rep.err != nil {
			results[i] = wire.Result{Status: wire.StatusUnavailable}
		} else {
			results[i] = rep.res
		}
	}
	if waiting {
		// Split the blocked time using what the batchers observed: queue
		// wait before the batch left, modelled wire time of the carrying
		// batches, and the remainder as remote service. Concurrent batches
		// overlap, so each bound is the per-batch maximum, clamped to the
		// actually blocked time.
		total := ctx.Now() - waitStart
		if maxQwait > total {
			maxQwait = total
		}
		if maxNet > total-maxQwait {
			maxNet = total - maxQwait
		}
		sc.Agg.Add(trace.CompPoolWait, maxQwait)
		sc.Agg.Add(trace.CompNetwork, maxNet)
		sc.Agg.Add(trace.CompRemote, total-maxQwait-maxNet)
	}
	return results, nil
}

// Exec runs a batch of operations, transparently retrying operations that
// hit stale partition maps or fail-overs. Result i corresponds to op i.
func (c *Client) Exec(ctx env.Ctx, ops []wire.Op) ([]wire.Result, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	// Stamp every write with an idempotency token before the first send.
	// Tokens stay fixed across transport retries AND across the re-routing
	// loop below, so no matter how often (or along which path) a write is
	// resent, the owning node executes it at most once.
	for i := range ops {
		if ops[i].Code.IsWrite() && ops[i].Seq == 0 {
			ops[i].Seq = c.nextSeq()
		}
	}
	results, err := c.execBatch(ctx, ops)
	if err != nil {
		return nil, err
	}
	// Retry loop for re-routable failures. All time spent retrying —
	// backoff sleeps, map refreshes, the retried requests themselves — is
	// charged to the retry component of the transaction's breakdown.
	sc := ctx.Trace()
	retrying := false
	epochSeen := c.cachedEpoch()
	for attempt := 0; attempt < reroutes; attempt++ {
		var retryIdx []int
		for i := range results {
			switch results[i].Status {
			case wire.StatusWrongPartition, wire.StatusUnavailable, wire.StatusStaleMap:
				retryIdx = append(retryIdx, i)
			}
		}
		if len(retryIdx) == 0 {
			break
		}
		if !retrying && sc.Agg != nil && sc.Agg.Redirect < 0 {
			retrying = true
			sc.Agg.Redirect = trace.CompRetry
		}
		ctx.Sleep(rerouteDelay)
		// The failing response usually piggybacks the newer map (migration
		// cutover); only fall back to the lookup service when the cache has
		// not moved since the failed attempt.
		if cur := c.cachedEpoch(); cur > epochSeen {
			epochSeen = cur
		} else if err := c.refreshMap(ctx); err != nil {
			continue
		}
		sub := make([]wire.Op, len(retryIdx))
		for k, i := range retryIdx {
			sub[k] = ops[i]
		}
		subResults, err := c.execBatch(ctx, sub)
		if errors.Is(err, ErrClosed) {
			return nil, err
		}
		if err != nil {
			continue
		}
		for k, i := range retryIdx {
			subResults[k].MarkRetried()
			results[i] = subResults[k]
		}
	}
	if retrying {
		sc.Agg.Redirect = -1
	}
	return results, nil
}

// statusErr maps a result status to a client error.
func statusErr(s wire.Status) error {
	switch s {
	case wire.StatusOK:
		return nil
	case wire.StatusNotFound:
		return ErrNotFound
	case wire.StatusConflict:
		return ErrConflict
	case wire.StatusUnavailable, wire.StatusWrongPartition, wire.StatusOverload, wire.StatusStaleMap:
		return ErrUnavailable
	}
	return fmt.Errorf("store: status %v", s)
}

// Get returns the value and LL stamp for key. The stamp is the load-link
// token for a later CondPut.
func (c *Client) Get(ctx env.Ctx, key []byte) (val []byte, stamp uint64, err error) {
	res, err := c.Exec(ctx, []wire.Op{{Code: wire.OpGet, Key: key}})
	if err != nil {
		return nil, 0, err
	}
	if err := statusErr(res[0].Status); err != nil {
		return nil, 0, err
	}
	return res[0].Val, res[0].Stamp, nil
}

// Put unconditionally stores val under key.
func (c *Client) Put(ctx env.Ctx, key, val []byte) (stamp uint64, err error) {
	res, err := c.Exec(ctx, []wire.Op{{Code: wire.OpPut, Key: key, Val: val}})
	if err != nil {
		return 0, err
	}
	if err := statusErr(res[0].Status); err != nil {
		return 0, err
	}
	return res[0].Stamp, nil
}

// CondPut is the store-conditional: it writes val only if the cell's stamp
// still equals stamp (0 = key must not exist). On success it returns the
// new stamp; on interference it returns ErrConflict.
func (c *Client) CondPut(ctx env.Ctx, key, val []byte, stamp uint64) (newStamp uint64, err error) {
	res, err := c.Exec(ctx, []wire.Op{{Code: wire.OpCondPut, Key: key, Val: val, Stamp: stamp}})
	if err != nil {
		return 0, err
	}
	if err := statusErr(res[0].Status); err != nil {
		return 0, err
	}
	return res[0].Stamp, nil
}

// Delete removes key. A non-zero stamp makes the delete conditional.
func (c *Client) Delete(ctx env.Ctx, key []byte, stamp uint64) error {
	res, err := c.Exec(ctx, []wire.Op{{Code: wire.OpDelete, Key: key, Stamp: stamp}})
	if err != nil {
		return err
	}
	return statusErr(res[0].Status)
}

// CounterAdd atomically adds delta to the counter at key (creating it at
// zero) and returns the new value. Counters allocate tids and rids (§4.2).
func (c *Client) CounterAdd(ctx env.Ctx, key []byte, delta int64) (int64, error) {
	res, err := c.Exec(ctx, []wire.Op{{Code: wire.OpCounterAdd, Key: key, Delta: delta}})
	if err != nil {
		return 0, err
	}
	if err := statusErr(res[0].Status); err != nil {
		return 0, err
	}
	return res[0].Count, nil
}

// Scan returns up to limit pairs with lo <= key < hi in order (descending
// when reverse is set). It fans out to every partition master and merges.
// Scans bypass the batcher: they carry bulk payloads (§5.2).
func (c *Client) Scan(ctx env.Ctx, lo, hi []byte, limit int, reverse bool) ([]wire.Pair, error) {
	return c.scan(ctx, wire.Op{Code: wire.OpScan, Key: lo, EndKey: hi, Limit: uint32(limit), Reverse: reverse})
}

// ScanFiltered runs a push-down scan (§5.2): every partition master
// evaluates the spec's selection and projection server-side and returns
// only matching, projected rows. Traffic shrinks accordingly; see the
// ext-pushdown experiment.
func (c *Client) ScanFiltered(ctx env.Ctx, lo, hi []byte, spec *ScanSpec, limit int) ([]wire.Pair, error) {
	return c.scan(ctx, wire.Op{Code: wire.OpScanFiltered, Key: lo, EndKey: hi, Limit: uint32(limit), Val: spec.Encode()})
}

// scan runs one scan op against every partition, re-fetching the map and
// starting over when a partition fails.
func (c *Client) scan(ctx env.Ctx, op wire.Op) ([]wire.Pair, error) {
	var lastErr error
	for attempt := 0; attempt <= reroutes; attempt++ {
		if attempt > 0 {
			ctx.Sleep(rerouteDelay)
			if err := c.refreshMap(ctx); err != nil {
				lastErr = err
				continue
			}
		}
		pairs, err := c.scanOnce(ctx, op)
		if err == nil || errors.Is(err, ErrClosed) {
			return pairs, err
		}
		lastErr = err
	}
	return nil, lastErr
}

// scanOut is one partition's share of a scan.
type scanOut struct {
	pairs []wire.Pair
	err   error
}

// scanOnce sends op to every partition master in parallel, one activity
// each, and merges their answers in key order.
func (c *Client) scanOnce(ctx env.Ctx, op wire.Op) ([]wire.Pair, error) {
	pm, err := c.getMap(ctx)
	if err != nil {
		return nil, err
	}
	masters := pm.Masters()
	futs := make([]env.Future, len(masters))
	req := (&wire.StoreRequest{Epoch: pm.Epoch, Ops: []wire.Op{op}}).Encode()
	name := "scan"
	if op.Code == wire.OpScanFiltered {
		name = "scanf"
	}
	for i, addr := range masters {
		i, addr := i, addr
		futs[i] = c.envr.NewFuture()
		ctx.Go(name, func(sctx env.Ctx) {
			futs[i].Set(c.scanPartition(sctx, addr, req))
		})
	}
	sc := ctx.Trace()
	t0 := ctx.Now()
	var all []wire.Pair
	for _, f := range futs {
		out := f.Get(ctx).(scanOut)
		if out.err != nil {
			sc.Agg.Add(trace.CompRemote, ctx.Now()-t0)
			return nil, out.err
		}
		all = append(all, out.pairs...)
	}
	sc.Agg.Add(trace.CompRemote, ctx.Now()-t0)
	if op.Reverse {
		sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) > 0 })
	} else {
		sort.Slice(all, func(i, j int) bool { return bytes.Compare(all[i].Key, all[j].Key) < 0 })
	}
	if op.Limit > 0 && len(all) > int(op.Limit) {
		all = all[:op.Limit]
	}
	return all, nil
}

// scanPartition sends one encoded scan request to the master at addr.
func (c *Client) scanPartition(ctx env.Ctx, addr string, req []byte) scanOut {
	conn, err := c.conns.Get(addr)
	if err != nil {
		return scanOut{err: err}
	}
	var resp storeReply
	if _, _, err := c.Resil.Call(ctx, resil.ClassRead, addr, conn, req, resp.check); err != nil {
		return scanOut{err: err}
	}
	if len(resp.Results) != 1 || resp.Results[0].Status != wire.StatusOK {
		return scanOut{err: ErrUnavailable}
	}
	return scanOut{pairs: resp.Results[0].Pairs}
}
