package store

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"tell/internal/det"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/transport"
	"tell/internal/wire"
)

// Costs models the CPU service time a storage node charges per request and
// per operation under simulation. The defaults approximate RamCloud-class
// performance (~1M small operations per second per core, §6.1).
type Costs struct {
	PerRequest time.Duration // fixed dispatch cost per request
	PerOp      time.Duration // per operation in a batch
	PerKB      time.Duration // per kilobyte of values moved
}

// DefaultCosts returns the calibrated storage-node cost model.
func DefaultCosts() Costs {
	return Costs{
		PerRequest: 1 * time.Microsecond,
		PerOp:      1 * time.Microsecond,
		PerKB:      250 * time.Nanosecond,
	}
}

// chargeFor computes the CPU time for a batch of n ops moving b bytes.
func (c Costs) chargeFor(nops, nbytes int) time.Duration {
	return c.PerRequest + time.Duration(nops)*c.PerOp + time.Duration(nbytes)*c.PerKB/1024
}

// Node is one storage node (SN). It serves client batches for the
// partitions it masters, applies replication streams for the partitions it
// replicates, and transfers partition contents during recovery.
type Node struct {
	addr  string
	envr  env.Full
	node  env.Node
	tr    transport.Transport
	costs Costs

	mu    sanitize.Mutex
	mt    *memtable
	stamp uint64
	// pmap is the node's view of the cluster layout; masters caches the
	// partitions this node is currently master for.
	pmap    *PartitionMap
	masters []Partition

	deadRep map[string]bool // replicas that timed out; skipped until reconfigured

	// dedup is the exactly-once window: client write retries replay their
	// cached results instead of re-executing (CounterAdd is not naturally
	// idempotent, and a re-executed CondPut would observe its own stamp).
	dedup *resil.Window
	// gate is the admission controller for client batches: past the
	// inflight bound, requests shed with StatusOverload instead of
	// queueing without limit.
	gate *resil.Gate
	// retr retries replication sends (idempotent: replicas apply-if-newer
	// by stamp) before declaring a replica dead.
	retr  *resil.Retrier
	conns *transport.ConnSet

	// dur is the durability tier (WAL + fuzzy checkpoints), nil when the
	// node runs memory-only. See durability.go.
	dur *durState

	// fenced marks ranges this node has fenced for live migration: writes
	// fail with StatusStaleMap until the cutover publishes (or aborts),
	// while reads stay live on the old master (see migrate.go). Guarded by
	// mu; nil until the first fence.
	fenced map[uint64]bool
	// migs is the node's migration telemetry (per range, served through the
	// extended stats protocol). Guarded by mu; nil until the first phase.
	migs map[uint64]*wire.MigrationStat
	// MigrateChunkDelay throttles bulk-copy chunk shipping so a migration
	// shares the node with foreground traffic instead of saturating it.
	// 0 (the default) ships back to back. Set at setup time.
	MigrateChunkDelay time.Duration

	// stats
	nGets, nWrites, nScans uint64

	// tel is the optional telemetry pipeline and the node's per-range heat
	// tracker within it. SetObs may run after the node started serving (an
	// embedded cluster attaches telemetry once it is assembled), so handlers
	// load it atomically. Both are nil-safe, so the hot-path hooks cost
	// nothing when telemetry is off.
	tel atomic.Pointer[nodeTel]
}

type nodeTel struct {
	p    *obs.Pipeline
	heat *obs.Heat
}

// telemetry returns the pipeline and this node's heat tracker, both nil
// when telemetry is off.
func (sn *Node) telemetry() (*obs.Pipeline, *obs.Heat) {
	if t := sn.tel.Load(); t != nil {
		return t.p, t.heat
	}
	return nil, nil
}

// NewNode creates a storage node serving addr on the given execution node.
// envr provides synchronization primitives matching the execution
// environment (simulated or real).
func NewNode(addr string, envr env.Full, n env.Node, tr transport.Transport, costs Costs) *Node {
	sn := &Node{
		addr:    addr,
		envr:    envr,
		node:    n,
		tr:      tr,
		costs:   costs,
		mt:      newMemtable(int64(KeyHash([]byte(addr)))),
		pmap:    &PartitionMap{},
		conns:   transport.NewConnSet(tr, n),
		deadRep: make(map[string]bool),
		dedup:   resil.NewWindow(1024),
		gate:    resil.NewGate(envr, 256, time.Millisecond),
		retr:    resil.NewRetrier(),
	}
	sn.mu.SetName("store.Node.mu")
	return sn
}

// SetObs attaches the telemetry pipeline: handler-class latencies feed its
// windowed series and every request's per-range activity feeds this node's
// heat tracker. Requests already in flight may miss it; a nil pipeline
// (the default) keeps all hooks free.
func (sn *Node) SetObs(p *obs.Pipeline) {
	sn.tel.Store(&nodeTel{p: p, heat: p.Heat(sn.addr)})
}

// SetRetryPolicies replaces the node's retry policy table (replication
// shipping). Call at setup time, before the node serves traffic.
func (sn *Node) SetRetryPolicies(p [resil.NClasses]resil.Policy) { sn.retr.Policies = p }

// Sheds returns how many client batches the admission gate rejected.
func (sn *Node) Sheds() uint64 { return sn.gate.Sheds() }

// Replays returns how many duplicate writes were answered from the dedup
// window instead of re-executing.
func (sn *Node) Replays() uint64 { return sn.dedup.Replays() }

// Addr returns the node's serving address.
func (sn *Node) Addr() string { return sn.addr }

// OpStats returns the node's served operation counts (gets, writes, scans).
func (sn *Node) OpStats() (gets, writes, scans uint64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.nGets, sn.nWrites, sn.nScans
}

// Start registers the node's request handler with the transport.
func (sn *Node) Start() error {
	return sn.tr.Listen(sn.addr, sn.node, sn.handle)
}

// Configure installs a new partition map. The node recomputes its roles.
func (sn *Node) Configure(m *PartitionMap) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.applyMap(m)
}

// CurrentMap returns a copy of the partition map this node is serving
// under. Tests and tools use it to inspect convergence after failovers and
// migrations.
func (sn *Node) CurrentMap() *PartitionMap {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.pmap.Clone()
}

func (sn *Node) applyMap(m *PartitionMap) {
	if m.Epoch < sn.pmap.Epoch {
		return
	}
	sn.pmap = m.Clone()
	sn.masters = sn.masters[:0]
	for i := range sn.pmap.Partitions {
		if sn.pmap.Partitions[i].Master == sn.addr {
			sn.masters = append(sn.masters, sn.pmap.Partitions[i])
		}
	}
	sn.deadRep = make(map[string]bool)
}

// masterOf returns the partition this node masters that owns hash h.
func (sn *Node) masterOf(h uint64) (*Partition, bool) {
	for i := range sn.masters {
		if sn.masters[i].Owns(h) {
			return &sn.masters[i], true
		}
	}
	return nil, false
}

// handle dispatches one incoming message and feeds the handler latency to
// the telemetry pipeline under the request-class name.
func (sn *Node) handle(ctx env.Ctx, req []byte) []byte {
	start := ctx.Now()
	// A crashed or WAL-dead node refuses everything, pings included, so the
	// failure detector sees it exactly like a vanished process.
	if sn.dur != nil && sn.dur.down() {
		return unavailableFor(wire.PeekKind(req))
	}
	var class string
	var resp []byte
	switch wire.PeekKind(req) {
	case wire.KindStoreReq:
		// Admission control: shed rather than queue without bound. The
		// shed response is tiny and retryable, so overload degrades into
		// client backoff instead of timeout storms.
		if !sn.gate.Enter(ctx) {
			class, resp = "store", (&wire.StoreResponse{Status: wire.StatusOverload}).Encode()
		} else {
			class, resp = "store", sn.handleStore(ctx, req)
			sn.gate.Exit()
		}
	case wire.KindReplicate:
		class, resp = "replicate", sn.handleReplicate(ctx, req)
	case wire.KindMetaReq:
		class, resp = "meta", sn.handleMeta(ctx, req)
	case wire.KindPing:
		class, resp = "ping", []byte{byte(wire.KindPong)}
	case wire.KindRecoverReq:
		class, resp = "recover", sn.handleRecover(ctx, req)
	case wire.KindStatsExtReq:
		p, _ := sn.telemetry()
		ext := p.StatsExt(sn.addr)
		sn.fillMigStats(ext)
		sn.fillCounters(ext, ctx.Now())
		return ext.Encode()
	default:
		return (&wire.StoreResponse{Status: wire.StatusError}).Encode()
	}
	p, _ := sn.telemetry()
	p.ObserveClass(start, sn.addr, class, ctx.Now()-start)
	return resp
}

// unavailableFor encodes a kind-appropriate Unavailable refusal (a crashed
// node must answer every protocol family with something its caller decodes).
func unavailableFor(k wire.Kind) []byte {
	switch k {
	case wire.KindReplicate:
		return (&wire.ReplicateResponse{Status: wire.StatusUnavailable}).Encode()
	case wire.KindRecoverReq:
		return (&wire.RecoverResponse{Status: wire.StatusUnavailable}).Encode()
	case wire.KindMetaReq:
		return encodeMetaAck(wire.StatusUnavailable)
	default:
		return (&wire.StoreResponse{Status: wire.StatusUnavailable}).Encode()
	}
}

// fillCounters appends the node's running totals (and the process's trace
// counters) to a stats snapshot as plain series rows.
func (sn *Node) fillCounters(ext *wire.StatsExt, now time.Duration) {
	if ext.NowNs == 0 {
		ext.NowNs = int64(now) // no pipeline: report uptime on the env clock
	}
	sn.mu.Lock()
	ext.AddCounter(sn.addr, "store/gets", int64(sn.nGets))
	ext.AddCounter(sn.addr, "store/writes", int64(sn.nWrites))
	ext.AddCounter(sn.addr, "store/scans", int64(sn.nScans))
	ext.AddCounter(sn.addr, "store/keys", int64(sn.mt.len()))
	sn.mu.Unlock()
	ext.AddCounter(sn.addr, "resil/replays", int64(sn.dedup.Replays()))
	ext.AddCounter(sn.addr, "resil/sheds", int64(sn.gate.Sheds()))
	for _, c := range env.Tracer(sn.envr).Counters() {
		ext.AddCounter(sn.addr, "trace/"+c.Name, c.Value)
	}
	ext.SortRows()
}

// handleStore executes a client batch: run every op against the memtable,
// then synchronously replicate the resulting mutations before replying —
// "a SN ensures that data is replicated before acknowledging" (§4.4.2).
func (sn *Node) handleStore(ctx env.Ctx, raw []byte) []byte {
	req, err := wire.DecodeStoreRequest(raw)
	if err != nil {
		return (&wire.StoreResponse{Status: wire.StatusError}).Encode()
	}
	start := ctx.Now()
	ctx.Work(sn.costs.chargeFor(len(req.Ops), len(raw)))

	resp := &wire.StoreResponse{Status: wire.StatusOK}
	resp.Results = make([]wire.Result, len(req.Ops))
	// Mutations produced by this batch, grouped by partition.
	muts := make(map[uint64][]wire.Mutation)
	// Per-range activity of this batch, flushed to the heat tracker after
	// the reply is ready (nil when telemetry is off — zero cost).
	_, tracker := sn.telemetry()
	var heat map[uint64]*obs.HeatDelta
	if tracker != nil {
		heat = make(map[uint64]*obs.HeatDelta)
	}

	// executed collects the indices of tokened writes this request actually
	// ran; their outcomes enter the dedup window only after replication
	// succeeded, so a replayed OK always implies a replicated write.
	var executed []int

	sn.mu.Lock()
	resp.Epoch = sn.pmap.Epoch
	for i := range req.Ops {
		op := &req.Ops[i]
		if req.Client != "" && op.Seq != 0 && op.Code.IsWrite() {
			cached, st := sn.dedup.Begin(req.Client, op.Seq)
			switch st {
			case resil.StateReplay:
				// Duplicate of a completed write: answer from the cache,
				// byte-identical to the original, without re-executing or
				// re-replicating.
				r := wire.NewReader(cached)
				wire.DecodeResult(r, &resp.Results[i])
				continue
			case resil.StateInFlight, resil.StateStale:
				// Racing duplicate (original still executing) or a token
				// below the window floor: refuse rather than risk a double
				// execution. Unavailable is retryable; by the retry the
				// original has completed and replays.
				resp.Results[i] = wire.Result{Status: wire.StatusUnavailable}
				continue
			}
			executed = append(executed, i)
		}
		sn.execOp(op, &resp.Results[i], muts, heat)
	}
	// Snapshot replica targets under the lock, in sorted partition order:
	// the jobs become replication messages, whose emission order must not
	// depend on map iteration. WAL records are collected in the same order.
	var jobs []replJob
	var walRecs []durable.Record
	for _, pid := range det.Keys(muts) {
		ms := muts[pid]
		if sn.dur != nil {
			for i := range ms {
				walRecs = append(walRecs, durable.Record{Part: pid, Mut: ms[i]})
			}
		}
		var part *Partition
		for j := range sn.masters {
			if sn.masters[j].ID == pid {
				part = &sn.masters[j]
				break
			}
		}
		if part == nil {
			continue
		}
		for _, rep := range part.Replicas {
			if sn.deadRep[rep] {
				continue
			}
			jobs = append(jobs, replJob{
				req:  &wire.ReplicateRequest{PartitionID: pid, Mutations: ms},
				addr: rep,
			})
		}
	}
	// Map piggybacking: when the client's map lags this node's, or an op hit
	// a fenced range, ride the full map along so long-lived clients converge
	// without a lookup-service round trip. (During a fence the node's map
	// may still match the client's — the piggyback is then same-epoch and
	// the client falls back to refreshing from the manager.)
	var pmPiggy *PartitionMap
	staleReq := req.Epoch != 0 && req.Epoch < sn.pmap.Epoch
	if !staleReq {
		for i := range resp.Results {
			if resp.Results[i].Status == wire.StatusStaleMap {
				staleReq = true
				break
			}
		}
	}
	if staleReq {
		pmPiggy = sn.pmap.Clone()
	}
	sn.mu.Unlock()
	if pmPiggy != nil {
		resp.Map = pmPiggy.Encode()
	}

	// Scans cost CPU proportional to the records they examined (Count
	// carries the examined-row count for scan ops) and to the bytes they
	// return — the dominant cost of push-down processing (§5.2).
	var scanned int64
	var respBytes int
	for i := range resp.Results {
		if code := req.Ops[i].Code; code == wire.OpScan || code == wire.OpScanFiltered {
			scanned += resp.Results[i].Count
		}
		for _, p := range resp.Results[i].Pairs {
			respBytes += len(p.Val)
		}
	}
	if scanned > 0 || respBytes > 0 {
		ctx.Work(time.Duration(scanned)*sn.costs.PerOp/4 +
			time.Duration(respBytes)*sn.costs.PerKB/1024)
	}

	// Log before ack: the batch's mutations must be durable before the
	// client can observe success. Group commit batches concurrent handlers
	// into one backend round-trip. A failed log means the node fail-stops;
	// release the dedup tokens so the writes can retry elsewhere.
	if err := sn.walCommit(ctx, walRecs); err != nil {
		for _, i := range executed {
			sn.dedup.Abort(req.Client, req.Ops[i].Seq)
		}
		return (&wire.StoreResponse{Status: wire.StatusUnavailable}).Encode()
	}

	sn.replicateAll(ctx, jobs)

	// Seal executed tokens now that replication is done. WrongPartition and
	// StaleMap mean the op did not execute here — release the token so the
	// client can retry against the real master after a map refresh.
	for _, i := range executed {
		if st := resp.Results[i].Status; st == wire.StatusWrongPartition || st == wire.StatusStaleMap {
			sn.dedup.Abort(req.Client, req.Ops[i].Seq)
			continue
		}
		w := wire.GetWriter()
		wire.EncodeResult(w, &resp.Results[i])
		b := w.Finish()
		sn.dedup.Commit(req.Client, req.Ops[i].Seq, b) // Commit clones
		wire.PutBuf(b)
	}

	// Flush the batch's per-range activity, attributing the batch's full
	// handler latency to each touched range (partition-granular
	// approximation: one batch rarely spans partitions, and the heat feed
	// needs relative weight, not exact accounting). Ranges in sorted order
	// so tracker state mutates identically across same-seed runs.
	if heat != nil {
		elapsed := ctx.Now() - start
		for _, pid := range det.Keys(heat) {
			d := heat[pid]
			d.Lat, d.LatN = elapsed, 1
			tracker.Add(start, pid, *d)
		}
	}
	return resp.Encode()
}

// replJob pairs a replication batch with its destination.
type replJob struct {
	req  *wire.ReplicateRequest
	addr string
}

// replicateAll ships mutation batches to all replicas in parallel and waits
// for every acknowledgement.
func (sn *Node) replicateAll(ctx env.Ctx, jobs []replJob) {
	if len(jobs) == 0 {
		return
	}
	if len(jobs) == 1 {
		sn.replicateOne(ctx, jobs[0].addr, jobs[0].req)
		return
	}
	done := make([]env.Future, len(jobs))
	for i, j := range jobs {
		i, j := i, j
		done[i] = sn.envr.NewFuture()
		ctx.Go("replicate", func(rctx env.Ctx) {
			sn.replicateOne(rctx, j.addr, j.req)
			done[i].Set(nil)
		})
	}
	for _, f := range done {
		f.Get(ctx)
	}
}

func (sn *Node) replicateOne(ctx env.Ctx, addr string, req *wire.ReplicateRequest) {
	conn, err := sn.conns.Get(addr)
	if err != nil {
		sn.markReplicaDead(addr)
		return
	}
	// Resending a replication batch is safe without tokens: replicas apply
	// mutations if-newer by stamp, so duplicates are no-ops. Retry transient
	// losses before giving a replica up for dead — a single dropped message
	// must not degrade the replication factor.
	_, _, err = sn.retr.Call(ctx, resil.ClassReplicate, addr, conn, req.Encode(), func(raw []byte) error {
		rr, err := wire.DecodeReplicateResponse(raw)
		if err != nil {
			return resil.Permanent(err)
		}
		if rr.Status != wire.StatusOK {
			// A refusal (crashed node draining in its network buffers, WAL
			// failure) will not heal by resending: let the failure detector
			// reconfigure rather than count this replica as caught up.
			return resil.Permanent(fmt.Errorf("store: replica %s refused: %v", addr, rr.Status))
		}
		return nil
	})
	if err != nil {
		// The replica stayed unreachable through the retry budget. The
		// management node's failure detector will reconfigure; until then
		// skip it so the partition stays available.
		sn.markReplicaDead(addr)
	}
}

func (sn *Node) markReplicaDead(addr string) {
	sn.mu.Lock()
	sn.deadRep[addr] = true
	sn.mu.Unlock()
}

// counterBytes encodes a counter value the way Get returns it.
func counterBytes(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

// heatFor returns the accumulating delta for partition pid, or nil when
// telemetry is off (heat is nil then, so callers guard on the result).
func heatFor(heat map[uint64]*obs.HeatDelta, pid uint64) *obs.HeatDelta {
	if heat == nil {
		return nil
	}
	d := heat[pid]
	if d == nil {
		d = &obs.HeatDelta{}
		heat[pid] = d
	}
	return d
}

// execOp runs a single operation against the memtable, attributing its
// activity to the owning partition in heat (nil when telemetry is off).
// Caller holds sn.mu.
func (sn *Node) execOp(op *wire.Op, res *wire.Result, muts map[uint64][]wire.Mutation, heat map[uint64]*obs.HeatDelta) {
	if op.Code == wire.OpScan || op.Code == wire.OpScanFiltered {
		if op.Code == wire.OpScan {
			sn.execScan(op, res)
		} else {
			sn.execScanFiltered(op, res)
		}
		// A scan's rows are attributed to the partition of its start key —
		// range scans are contiguous in key space, so this identifies the
		// range driving scan load without re-hashing every returned row.
		if heat != nil {
			if p, ok := sn.pmap.Lookup(KeyHash(op.Key)); ok {
				d := heatFor(heat, p.ID)
				d.Reads += res.Count
				for i := range res.Pairs {
					d.ReadBytes += int64(len(res.Pairs[i].Val))
				}
			}
		}
		return
	}
	h := KeyHash(op.Key)
	part, ok := sn.masterOf(h)
	if !ok {
		// Replica reads: a client whose circuit breaker has opened on the
		// master may ask a replica directly (op.Replica). Replication is
		// synchronous, so the replica has every acknowledged write.
		if op.Code == wire.OpGet && op.Replica && sn.replicaOf(h) {
			sn.execGet(op, res)
			if heat != nil {
				if p, pok := sn.pmap.Lookup(h); pok {
					d := heatFor(heat, p.ID)
					d.Reads++
					d.ReadBytes += int64(len(res.Val))
				}
			}
			return
		}
		res.Status = wire.StatusWrongPartition
		return
	}
	// A range fenced for migration refuses writes with the retriable
	// stale-map status: an in-flight LL/SC either executed before the fence
	// (and its cell shipped with the final delta) or fails here and retries
	// against the new master once the cutover map arrives. Reads stay live —
	// the fenced copy is complete until the cutover publishes.
	if op.Code.IsWrite() && sn.fenced[part.ID] {
		res.Status = wire.StatusStaleMap
		return
	}
	if heat != nil {
		// Per-key access counter: the load weight behind data-aware split
		// points. Only meaningful (and only paid for) when telemetry flows.
		sn.mt.touch(op.Key)
		defer func() {
			d := heatFor(heat, part.ID)
			if op.Code == wire.OpGet {
				d.Reads++
				d.ReadBytes += int64(len(res.Val))
			} else {
				d.Writes++
				d.WriteBytes += int64(len(op.Val))
			}
			if res.Status == wire.StatusConflict {
				d.Conflicts++
			}
		}()
	}
	switch op.Code {
	case wire.OpGet:
		sn.execGet(op, res)

	case wire.OpPut:
		sn.nWrites++
		sn.stamp++
		c := cell{val: append([]byte(nil), op.Val...), stamp: sn.stamp}
		sn.mt.set(op.Key, c)
		res.Status = wire.StatusOK
		res.Stamp = c.stamp
		muts[part.ID] = append(muts[part.ID], wire.Mutation{Key: op.Key, Val: op.Val, Stamp: c.stamp})

	case wire.OpCondPut:
		sn.nWrites++
		cur, exists := sn.mt.get(op.Key)
		if exists && cur.dead {
			exists = false // tombstones read as absent
		}
		// LL/SC store-conditional: the expected stamp must match the
		// cell's current stamp exactly; 0 means "must not exist".
		if op.Stamp == 0 {
			if exists {
				res.Status = wire.StatusConflict
				res.Stamp = cur.stamp
				return
			}
		} else {
			if !exists {
				res.Status = wire.StatusNotFound
				return
			}
			if cur.stamp != op.Stamp {
				res.Status = wire.StatusConflict
				res.Stamp = cur.stamp
				return
			}
		}
		sn.stamp++
		c := cell{val: append([]byte(nil), op.Val...), stamp: sn.stamp}
		sn.mt.set(op.Key, c)
		res.Status = wire.StatusOK
		res.Stamp = c.stamp
		muts[part.ID] = append(muts[part.ID], wire.Mutation{Key: op.Key, Val: op.Val, Stamp: c.stamp})

	case wire.OpDelete:
		sn.nWrites++
		cur, exists := sn.mt.get(op.Key)
		if !exists || cur.dead {
			res.Status = wire.StatusNotFound
			return
		}
		if op.Stamp != 0 && cur.stamp != op.Stamp {
			res.Status = wire.StatusConflict
			res.Stamp = cur.stamp
			return
		}
		sn.stamp++
		// Deletes leave a tombstone so late-arriving replication of older
		// writes cannot resurrect the key (last-writer-wins by stamp).
		sn.mt.set(op.Key, cell{dead: true, stamp: sn.stamp})
		res.Status = wire.StatusOK
		muts[part.ID] = append(muts[part.ID], wire.Mutation{Key: op.Key, Deleted: true, Stamp: sn.stamp})

	case wire.OpCounterAdd:
		sn.nWrites++
		cur, exists := sn.mt.get(op.Key)
		if !exists || cur.dead {
			cur = cell{isCtr: true}
		}
		if !cur.isCtr {
			res.Status = wire.StatusError
			return
		}
		cur.counter += op.Delta
		sn.stamp++
		cur.stamp = sn.stamp
		sn.mt.set(op.Key, cur)
		res.Status = wire.StatusOK
		res.Count = cur.counter
		res.Stamp = cur.stamp
		muts[part.ID] = append(muts[part.ID], wire.Mutation{Key: op.Key, Counter: true, CtrVal: cur.counter, Stamp: cur.stamp})

	default:
		res.Status = wire.StatusError
	}
}

// execGet serves a point read from the memtable. Caller holds sn.mu.
func (sn *Node) execGet(op *wire.Op, res *wire.Result) {
	sn.nGets++
	c, ok := sn.mt.get(op.Key)
	if !ok || c.dead {
		res.Status = wire.StatusNotFound
		return
	}
	res.Status = wire.StatusOK
	res.Stamp = c.stamp
	if c.isCtr {
		res.Val = counterBytes(c.counter)
		res.Count = c.counter
	} else {
		res.Val = c.val
	}
}

// replicaOf reports whether this node replicates the partition owning hash
// h. Caller holds sn.mu.
func (sn *Node) replicaOf(h uint64) bool {
	for i := range sn.pmap.Partitions {
		p := &sn.pmap.Partitions[i]
		if !p.Owns(h) {
			continue
		}
		for _, rep := range p.Replicas {
			if rep == sn.addr {
				return true
			}
		}
	}
	return false
}

// execScan returns pairs in [Key, EndKey) that this node masters, up to
// Limit. Caller holds sn.mu.
func (sn *Node) execScan(op *wire.Op, res *wire.Result) {
	sn.nScans++
	res.Status = wire.StatusOK
	limit := int(op.Limit)
	if limit == 0 {
		limit = 1 << 30
	}
	var hi []byte
	if len(op.EndKey) > 0 {
		hi = op.EndKey
	}
	sn.mt.scan(op.Key, hi, op.Reverse, func(key []byte, c cell) bool {
		res.Count++
		if c.dead {
			return true
		}
		if _, mine := sn.masterOf(KeyHash(key)); !mine {
			return true // not ours; a peer will return it
		}
		val := c.val
		if c.isCtr {
			val = counterBytes(c.counter)
		}
		res.Pairs = append(res.Pairs, wire.Pair{
			Key:   append([]byte(nil), key...),
			Val:   append([]byte(nil), val...),
			Stamp: c.stamp,
		})
		return len(res.Pairs) < limit
	})
}

// handleReplicate applies a mutation stream from a partition master.
func (sn *Node) handleReplicate(ctx env.Ctx, raw []byte) []byte {
	req, err := wire.DecodeReplicateRequest(raw)
	if err != nil {
		return (&wire.ReplicateResponse{Status: wire.StatusError}).Encode()
	}
	ctx.Work(sn.costs.chargeFor(len(req.Mutations), len(raw)))
	sn.mu.Lock()
	for i := range req.Mutations {
		sn.applyMutationLocked(&req.Mutations[i])
	}
	sn.mu.Unlock()
	if _, tracker := sn.telemetry(); tracker != nil {
		d := obs.HeatDelta{Writes: int64(len(req.Mutations))}
		for i := range req.Mutations {
			d.WriteBytes += int64(len(req.Mutations[i].Val))
		}
		tracker.Add(ctx.Now(), req.PartitionID, d)
	}
	// The replica's copy must be as durable as the master's: a write is
	// only acknowledged once every live replica logged it.
	if sn.dur != nil {
		recs := make([]durable.Record, len(req.Mutations))
		for i := range req.Mutations {
			recs[i] = durable.Record{Part: req.PartitionID, Mut: req.Mutations[i]}
		}
		if err := sn.walCommit(ctx, recs); err != nil {
			return (&wire.ReplicateResponse{Status: wire.StatusUnavailable}).Encode()
		}
	}
	return (&wire.ReplicateResponse{Status: wire.StatusOK}).Encode()
}

// applyMutationLocked applies one replicated mutation if-newer by stamp.
// Caller holds sn.mu.
//
// Apply-if-newer: concurrent replication batches (and parallel recovery
// workers) may deliver mutations out of order; stamps are unique and
// monotonic per master, so last-writer-wins reconstructs the master's final
// state regardless of arrival order.
func (sn *Node) applyMutationLocked(m *wire.Mutation) {
	if cur, ok := sn.mt.get(m.Key); ok && cur.stamp >= m.Stamp {
		return
	}
	sn.mt.set(m.Key, cellFromMutation(m))
	// Track the master's stamps so that, if promoted, this node issues
	// strictly larger ones (keeping LL/SC ABA-safe).
	if m.Stamp > sn.stamp {
		sn.stamp = m.Stamp
	}
}

// handleMeta serves control messages from the management node.
func (sn *Node) handleMeta(ctx env.Ctx, raw []byte) []byte {
	r := wire.NewReader(raw)
	r.Byte() // kind, already checked
	switch metaSub(r.Byte()) {
	case metaConfigure:
		m, err := DecodePartitionMapFrom(r)
		if err != nil {
			return encodeMetaAck(wire.StatusError)
		}
		sn.mu.Lock()
		// Promotion safety: issue stamps beyond anything the old
		// master might have assigned that we did not see.
		sn.stamp += stampSkipOnPromotion
		sn.applyMap(m)
		sn.mu.Unlock()
		return encodeMetaAck(wire.StatusOK)

	case metaTransfer:
		pid := r.Uvarint()
		target := r.String()
		if r.Err() != nil {
			return encodeMetaAck(wire.StatusError)
		}
		if !sn.transferPartition(ctx, pid, target) {
			return encodeMetaAck(wire.StatusUnavailable)
		}
		return encodeMetaAck(wire.StatusOK)

	case metaMigCopy, metaMigDelta, metaMigFence, metaMigFinish, metaMigAdopt, metaMigMedian:
		sub := metaSub(raw[1])
		pid := r.Uvarint()
		peer := r.String()
		floor := r.Uvarint()
		if r.Err() != nil {
			return encodeMetaAck(wire.StatusError)
		}
		switch sub {
		case metaMigCopy:
			return sn.handleMigCopy(ctx, pid, peer)
		case metaMigDelta:
			return sn.handleMigDelta(ctx, pid, peer, floor)
		case metaMigFence:
			return sn.handleMigFence(ctx, pid, peer, floor)
		case metaMigFinish:
			return sn.handleMigFinish(ctx, pid, floor != 0)
		case metaMigMedian:
			return sn.handleMigMedian(pid)
		default:
			return sn.handleMigAdopt(ctx, pid, peer)
		}
	}
	return encodeMetaAck(wire.StatusError)
}

// stampSkipOnPromotion is the stamp gap a freshly promoted master leaves to
// cover writes the failed master acknowledged but this replica never saw
// (impossible under synchronous replication, but cheap insurance).
const stampSkipOnPromotion = 1 << 20

// transferChunk is how many cells a partition transfer ships per request.
const transferChunk = 512

// transferPartition copies all cells of partition pid to target, restoring
// the replication factor after a node loss (§4.4.2: "eventually, the system
// re-organizes itself and restores the replication level"). It shares the
// migration copy machinery: a floor-0 bulk pass followed by delta rounds,
// so cells written while the copy runs are re-shipped under a stamp floor
// instead of relying on the live replication stream racing the scan, and
// the bulk pass holds the lock per chunk, not for the whole partition.
func (sn *Node) transferPartition(ctx env.Ctx, pid uint64, target string) bool {
	ack, ok := sn.copyRange(ctx, pid, target, 0, 0)
	if !ok {
		return false
	}
	floor := ack.Floor
	for round := 0; round < migDeltaRounds; round++ {
		d, ok := sn.copyRange(ctx, pid, target, floor, 0)
		if !ok {
			return false
		}
		floor = d.Floor
		if d.Count <= migDeltaSettle {
			// The remaining window is one delta's worth of writes, which the
			// live replication stream to the (already configured) new replica
			// covers from here on.
			break
		}
	}
	return true
}

// BulkLoad inserts cells directly into the node, bypassing the network path.
// It exists for benchmark population: loading the TPC-C dataset through the
// full RPC stack would dominate experiment runtime without exercising
// anything the experiments measure. Stamps are assigned normally, so LL/SC
// semantics hold for all subsequent traffic. Replicas must be loaded with
// LoadReplica using the returned stamps (the cluster helper does this).
func (sn *Node) BulkLoad(key, val []byte) uint64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.stamp++
	sn.mt.set(key, cell{val: append([]byte(nil), val...), stamp: sn.stamp})
	return sn.stamp
}

// LoadReplica installs a cell with a fixed stamp (bulk-load path only).
func (sn *Node) LoadReplica(key, val []byte, stamp uint64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.mt.set(key, cell{val: append([]byte(nil), val...), stamp: stamp})
	if stamp > sn.stamp {
		sn.stamp = stamp
	}
}

// BulkLoadCounter installs a counter cell directly (bulk-load path only).
func (sn *Node) BulkLoadCounter(key []byte, v int64) uint64 {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.stamp++
	sn.mt.set(key, cell{isCtr: true, counter: v, stamp: sn.stamp})
	return sn.stamp
}

// LoadReplicaCounter installs a counter cell with a fixed stamp (bulk-load
// path only).
func (sn *Node) LoadReplicaCounter(key []byte, v int64, stamp uint64) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	sn.mt.set(key, cell{isCtr: true, counter: v, stamp: stamp})
	if stamp > sn.stamp {
		sn.stamp = stamp
	}
}
