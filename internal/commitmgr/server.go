// Package commitmgr implements the commit-manager service (§4.2): a
// lightweight authority that hands starting transactions a system-wide
// unique transaction id, a snapshot descriptor, and the lowest active
// version number (lav). Commit managers do no commit validation — conflict
// detection happens at the storage layer via LL/SC (§4.1) — which is why
// they are not a bottleneck (Table 3).
//
// Several commit managers run in parallel for scale and fault-tolerance.
// tid uniqueness comes from an atomic counter in the shared store, bumped
// in ranges; snapshot state is synchronized through the store at a short
// interval (1 ms by default; §6.3.3 shows this does not raise abort rates).
package commitmgr

import (
	"slices"
	"time"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/obs"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/store"
	"tell/internal/transport"
	"tell/internal/txlog"
	"tell/internal/wire"
)

// Store keys used by the commit-manager fleet.
const (
	// tidCounterKey is the shared LL/SC counter that makes tids unique.
	tidCounterKey = "sys/cm/tidctr"
	// statePrefix + id holds each manager's published state.
	statePrefix = "sys/cm/state/"
)

// Server is one commit-manager instance.
type Server struct {
	addr string
	id   string
	envr env.Full
	node env.Node
	tr   transport.Transport
	sc   *store.Client

	// SyncInterval is how often state is pushed to and pulled from the
	// store (paper default: 1 ms).
	SyncInterval time.Duration
	// TidRange is how many tids one counter bump reserves (paper: e.g. 256).
	TidRange int64
	// Interleaved switches tid allocation from contiguous ranges to the
	// interleaved scheme §4.2 names as near-future work: a manager
	// reserves a block of the global sequence but issues only every n-th
	// tid of it (n = fleet size), closing the rest immediately. Issued
	// tids are therefore spread thinly across the number space instead of
	// forming long per-manager runs, so a burst of commits from one
	// manager leaves no wide un-finished gap below the snapshot base —
	// the staleness effect the paper blames for contiguous ranges' higher
	// abort rate. Every tid in a reserved block has exactly one manager
	// responsible for finishing it, so the base always advances.
	Interleaved bool
	// Peers lists the ids of all commit managers (including this one)
	// whose states are merged.
	Peers []string

	mu sanitize.Mutex
	// fin is the finished set: {x ≤ Base} all finished, bits = finished
	// tids above Base (committed or aborted). Base is the paper's b.
	fin *mvcc.Snapshot
	// comm is the snapshot descriptor handed to transactions: committed
	// tids. Its {≤Base} region may include aborted tids — safe, because
	// aborted transactions have rolled their versions back (§4.2).
	comm *mvcc.Snapshot
	// active maps running tids (started here) to their snapshot base and
	// start time.
	active map[uint64]activeTx
	// tid range state.
	nextTid, tidEnd uint64
	issuedThisTick  bool
	// peerLav caches the min-active-base each peer last published;
	// peerSeq/peerStale expire managers that stopped publishing.
	peerLav   map[string]uint64
	peerSeq   map[string]uint64
	peerStale map[string]int
	seq       uint64
	// peerRange caches each peer's last published unissued tid range
	// [next, end]; deadPeers marks peers presumed dead, whose ranges and
	// unreported finishes are recovered from the transaction log.
	peerRange map[string][2]uint64
	deadPeers map[string]bool
	syncTick  int
	// clients remembers, per grouped-protocol client, the last descriptor
	// sent and its sequence number, so the next response can ship a delta
	// (§4.2 descriptors change little between consecutive starts). Soft
	// state: losing it merely forces a full retransmit.
	clients map[string]*clientDescState

	// StalePeerTicks drops a peer's published lav after this many sync
	// ticks without change (the peer is presumed dead).
	StalePeerTicks int
	// RecoveryGrace is how old a transaction-log entry without an outcome
	// must be before a recovery sweep fences it off as aborted. It bounds
	// the window in which fencing could spuriously abort a slow but alive
	// transaction (which stays safe — the fence makes MarkCommitted fail —
	// just wasteful).
	RecoveryGrace time.Duration
	// RecoveryEvery is how many sync ticks pass between recovery sweeps
	// while some peer is presumed dead.
	RecoveryEvery int

	// dedup is the exactly-once window for grouped starts: a retried
	// StartGroupReq replays its cached response instead of allocating a
	// second batch of tids (which would pin the lav until activeTTL).
	dedup *resil.Window
	// gate is the admission controller: past the inflight bound, requests
	// shed with StatusOverload instead of queueing without limit.
	gate *resil.Gate

	stopped bool
	starts  uint64
	// deltas/fulls count grouped responses by descriptor form (telemetry
	// for the delta-encoding hit rate; gap or fail-over forces a full).
	deltas, fulls uint64
	// obs, if set, feeds handler latencies into the windowed telemetry
	// pipeline (nil disables; every hook below is nil-safe).
	obs *obs.Pipeline
}

// SetObs attaches the telemetry pipeline. Call before Start.
func (s *Server) SetObs(p *obs.Pipeline) { s.obs = p }

// activeTTL expires transactions that never reported an outcome (a
// processing node that died before writing its first log entry, so recovery
// cannot see it). It must exceed any plausible transaction duration plus
// failure-detection time; expired tids count as aborted. Such a transaction
// wrote nothing, so this is safe.
const activeTTL = 30 * time.Second

// New creates a commit manager. id must be unique across the fleet; addr is
// where PNs reach it. sc is its client to the shared store.
func New(id, addr string, envr env.Full, node env.Node, tr transport.Transport, sc *store.Client) *Server {
	s := &Server{
		addr:           addr,
		id:             id,
		envr:           envr,
		node:           node,
		tr:             tr,
		sc:             sc,
		SyncInterval:   time.Millisecond,
		TidRange:       256,
		Peers:          []string{id},
		fin:            mvcc.NewSnapshot(0),
		comm:           mvcc.NewSnapshot(0),
		active:         make(map[uint64]activeTx),
		peerLav:        make(map[string]uint64),
		peerSeq:        make(map[string]uint64),
		peerStale:      make(map[string]int),
		peerRange:      make(map[string][2]uint64),
		deadPeers:      make(map[string]bool),
		clients:        make(map[string]*clientDescState),
		dedup:          resil.NewWindow(256),
		gate:           resil.NewGate(envr, 256, time.Millisecond),
		StalePeerTicks: 5000,
		RecoveryGrace:  100 * time.Millisecond,
		RecoveryEvery:  100,
	}
	s.mu.SetName("commitmgr.Server.mu")
	return s
}

// Sheds returns how many requests the admission gate rejected.
func (s *Server) Sheds() uint64 { return s.gate.Sheds() }

// Replays returns how many duplicate grouped starts were answered from the
// dedup window instead of re-executing.
func (s *Server) Replays() uint64 { return s.dedup.Replays() }

// Start registers the handler and the synchronization loop.
func (s *Server) Start() error {
	if err := s.tr.Listen(s.addr, s.node, s.handle); err != nil {
		return err
	}
	s.node.Go("cm-sync", s.syncLoop)
	return nil
}

// Stop ends the synchronization loop.
func (s *Server) Stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
}

// Resume adopts the state this manager's own previous incarnation published
// to the store — the same-id variant of Restore, for a process restart
// against a store that outlived it (the durable tier makes that possible:
// a WAL-backed storage node replays the tid counter, the published CM
// state and every committed version, so a cold-started manager must not
// begin at snapshot base 0 and treat history as uncommitted). The published
// (fin, comm) fast-forward the descriptor past every tid the old process
// closed; the unissued tail of its last tid range is fenced and closed
// through the transaction log exactly like a dead peer's (§4.4.3). On a
// fresh store (no state record) this is a no-op.
func (s *Server) Resume(ctx env.Ctx) {
	raw, _, err := s.sc.Get(ctx, []byte(statePrefix+s.id))
	if err != nil {
		return
	}
	r := wire.NewReader(raw)
	pfin, err := mvcc.DecodeSnapshotFrom(r)
	if err != nil {
		return
	}
	pcomm, err := mvcc.DecodeSnapshotFrom(r)
	if err != nil {
		return
	}
	r.Uvarint() // lav: ours now that the old incarnation is gone
	pseq := r.Uvarint()
	pnext := r.Uvarint()
	pend := r.Uvarint()
	if r.Err() != nil {
		return
	}
	// "~prev" is not a valid peer id, so it is never pulled or published;
	// it exists only to route the old range through dead-peer recovery.
	const prev = "~prev"
	s.mu.Lock()
	s.merge(pfin, pcomm)
	if pseq > s.seq {
		s.seq = pseq // keep the publish sequence monotonic across restarts
	}
	s.peerRange[prev] = [2]uint64{pnext, pend}
	s.deadPeers[prev] = true
	s.advanceLocked()
	s.mu.Unlock()
	s.recoverDeadPeers(ctx)
	s.mu.Lock()
	delete(s.deadPeers, prev)
	delete(s.peerRange, prev)
	s.mu.Unlock()
}

func (s *Server) handle(ctx env.Ctx, raw []byte) []byte {
	if wire.PeekKind(raw) == wire.KindPing {
		return []byte{byte(wire.KindPong)}
	}
	if wire.PeekKind(raw) == wire.KindStatsExtReq {
		ext := s.obs.StatsExt(s.id)
		s.fillCounters(ext, ctx.Now())
		return ext.Encode()
	}
	// Admission control: shed rather than queue without bound (pings and
	// stats above bypass — the failure detector must see an overloaded
	// manager as alive).
	if !s.gate.Enter(ctx) {
		if len(raw) >= 2 && cmSub(raw[1]) == cmStartGroup {
			return (&StartGroupResp{Status: wire.StatusOverload}).Encode()
		}
		return ackResp(wire.StatusOverload)
	}
	resp := s.handleCM(ctx, raw)
	s.gate.Exit()
	return resp
}

func (s *Server) handleCM(ctx env.Ctx, raw []byte) []byte {
	r := wire.NewReader(raw)
	if wire.Kind(r.Byte()) != wire.KindCMReq {
		return ackResp(wire.StatusError)
	}
	began := ctx.Now()
	switch cmSub(r.Byte()) {
	case cmStart:
		resp := s.handleStart(ctx)
		s.observe("start", ctx.Now()-began)
		return resp
	case cmStartGroup:
		req, err := DecodeStartGroupReq(raw)
		if err != nil {
			return (&StartGroupResp{Status: wire.StatusError}).Encode()
		}
		resp := s.startGroupDedup(ctx, req)
		s.observe("start-group", ctx.Now()-began)
		return resp
	case cmFinished:
		tid := r.Uvarint()
		committed := r.Bool()
		if r.Err() != nil {
			return ackResp(wire.StatusError)
		}
		s.finish(tid, committed)
		s.observe("finish", ctx.Now()-began)
		return ackResp(wire.StatusOK)
	}
	return ackResp(wire.StatusError)
}

// observe feeds one handler latency to the telemetry pipeline.
func (s *Server) observe(class string, d time.Duration) {
	s.obs.ObserveClass(s.obs.Now(), s.id, class, d)
}

// fillCounters appends the manager's running totals (and the process's
// trace counters) to a stats snapshot as plain series rows.
func (s *Server) fillCounters(ext *wire.StatsExt, now time.Duration) {
	if ext.NowNs == 0 {
		ext.NowNs = int64(now) // no pipeline: report uptime on the env clock
	}
	s.mu.Lock()
	ext.AddCounter(s.id, "cm/starts", int64(s.starts))
	ext.AddCounter(s.id, "cm/active", int64(len(s.active)))
	ext.AddCounter(s.id, "cm/lav", int64(s.lavLocked()))
	ext.AddCounter(s.id, "cm/deltas", int64(s.deltas))
	ext.AddCounter(s.id, "cm/fulls", int64(s.fulls))
	s.mu.Unlock()
	ext.AddCounter(s.id, "resil/replays", int64(s.dedup.Replays()))
	ext.AddCounter(s.id, "resil/sheds", int64(s.gate.Sheds()))
	for _, c := range env.Tracer(s.envr).Counters() {
		ext.AddCounter(s.id, "trace/"+c.Name, c.Value)
	}
	ext.SortRows()
}

// peerIndex returns this manager's position in the (sorted) fleet and the
// fleet size, the parameters of interleaved allocation.
func (s *Server) peerIndex() (idx, n int) {
	n = len(s.Peers)
	if n == 0 {
		return 0, 1
	}
	sorted := append([]string(nil), s.Peers...)
	sortStrings(sorted)
	for i, p := range sorted {
		if p == s.id {
			return i, n
		}
	}
	return 0, n
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// handleStart implements start() → (tid, snapshot descriptor, lav).
func (s *Server) handleStart(ctx env.Ctx) []byte {
	ctx.Work(500 * time.Nanosecond)
	s.mu.Lock()
	if s.nextTid > s.tidEnd {
		// Range exhausted: reserve a fresh one through the shared
		// counter. Dropping the lock during the RPC would let
		// concurrent starts double-issue, so refill synchronously.
		s.mu.Unlock()
		if err := s.refillRange(ctx); err != nil {
			return ackResp(wire.StatusUnavailable)
		}
		s.mu.Lock()
		if s.nextTid > s.tidEnd {
			s.mu.Unlock()
			return ackResp(wire.StatusUnavailable)
		}
	}
	tid := s.nextTid
	if s.Interleaved {
		_, n := s.peerIndex()
		s.nextTid += uint64(n)
	} else {
		s.nextTid++
	}
	s.issuedThisTick = true
	s.starts++
	snap := s.comm.Clone()
	s.active[tid] = activeTx{base: snap.Base, at: ctx.Now()}
	lav := s.lavLocked()
	s.mu.Unlock()

	w := wire.NewWriter(64)
	w.Byte(byte(wire.KindCMResp))
	w.Byte(byte(cmStart))
	w.Byte(byte(wire.StatusOK))
	w.Uvarint(tid)
	snap.EncodeTo(w)
	w.Uvarint(lav)
	return w.Bytes()
}

// startGroupDedup is the exactly-once wrapper around handleStartGroup. A
// grouped start is NOT idempotent — re-executing allocates fresh tids (left
// active until activeTTL, pinning the lav) and advances the per-client
// descriptor sequence — so duplicates of a completed request replay the
// cached response byte-identically, and duplicates racing the in-flight
// original are refused with a retryable status. Failed executions release
// the token so the client's retry runs fresh.
func (s *Server) startGroupDedup(ctx env.Ctx, req *StartGroupReq) []byte {
	tokened := req.Client != "" && req.Seq != 0
	if tokened {
		cached, st := s.dedup.Begin(req.Client, req.Seq)
		switch st {
		case resil.StateReplay:
			return cached
		case resil.StateInFlight, resil.StateStale:
			return (&StartGroupResp{Status: wire.StatusUnavailable}).Encode()
		}
	}
	resp := s.handleStartGroup(ctx, req)
	if tokened {
		if len(resp) >= 3 && wire.Status(resp[2]) == wire.StatusOK {
			s.dedup.Commit(req.Client, req.Seq, resp) // Commit clones
		} else {
			s.dedup.Abort(req.Client, req.Seq)
		}
	}
	return resp
}

// clientDescState is the per-client descriptor memory behind delta
// encoding: the last snapshot sent and its sequence number.
type clientDescState struct {
	seq  uint64
	snap *mvcc.Snapshot
}

// handleStartGroup serves the coalesced protocol: apply the piggybacked
// finish notifications, allocate one tid per requested start, and answer
// with a single shared descriptor — as a delta against the client's last
// acknowledged one when the ack chain is intact, full otherwise.
func (s *Server) handleStartGroup(ctx env.Ctx, req *StartGroupReq) []byte {
	// Cost model: same base as a split start plus a small per-item charge
	// for the extra tids and folded finishes.
	ctx.Work(500*time.Nanosecond + time.Duration(int(req.Count)+len(req.Fins))*100*time.Nanosecond)

	// Finishes first, so the descriptor handed out reflects them: a client
	// whose commit rides this request must see its own transaction in the
	// next snapshot it receives.
	if len(req.Fins) > 0 {
		s.mu.Lock()
		for _, f := range req.Fins {
			delete(s.active, f.TID)
			s.fin.Add(f.TID)
			if f.Committed {
				s.comm.Add(f.TID)
			}
		}
		s.advanceLocked()
		s.mu.Unlock()
	}

	// Allocate Count tids, refilling the range as needed (same synchronous
	// discipline as handleStart: the lock never spans the counter RPC).
	tids := make([]uint64, 0, req.Count)
	for uint64(len(tids)) < req.Count {
		s.mu.Lock()
		step := uint64(1)
		if s.Interleaved {
			_, n := s.peerIndex()
			step = uint64(n)
		}
		for s.nextTid <= s.tidEnd && uint64(len(tids)) < req.Count {
			tids = append(tids, s.nextTid)
			s.nextTid += step
		}
		done := uint64(len(tids)) >= req.Count
		s.mu.Unlock()
		if done {
			break
		}
		if err := s.refillRange(ctx); err != nil {
			s.closeTids(tids)
			return (&StartGroupResp{Status: wire.StatusUnavailable}).Encode()
		}
		s.mu.Lock()
		empty := s.nextTid > s.tidEnd
		s.mu.Unlock()
		if empty {
			s.closeTids(tids)
			return (&StartGroupResp{Status: wire.StatusUnavailable}).Encode()
		}
	}

	resp := &StartGroupResp{Status: wire.StatusOK, TIDs: tids, Server: s.id, Full: true}
	now := ctx.Now()
	s.mu.Lock()
	if len(tids) > 0 {
		s.issuedThisTick = true
	}
	s.starts += uint64(len(tids))
	snap := s.comm.Clone()
	for _, tid := range tids {
		s.active[tid] = activeTx{base: snap.Base, at: now}
	}
	resp.Lav = s.lavLocked()
	ent := s.clients[req.Client]
	if ent != nil && req.AckSeq != 0 && req.AckServer == s.id && req.AckSeq == ent.seq {
		// Ack chain intact: the client still holds the descriptor we last
		// sent, so ship only the difference — unless the descriptor moved
		// so much that the delta would not actually save bytes.
		if d := mvcc.Diff(ent.snap, snap); d != nil && d.EncodedSize() < snap.Size() {
			resp.Full = false
			resp.Delta = d
		}
	}
	if resp.Full {
		resp.Snap = snap
		s.fulls++
	} else {
		s.deltas++
	}
	if req.Client != "" {
		seq := uint64(1)
		if ent != nil {
			seq = ent.seq + 1
		}
		s.clients[req.Client] = &clientDescState{seq: seq, snap: snap}
		resp.Seq = seq
	}
	s.mu.Unlock()
	return resp.Encode()
}

// closeTids finishes tids that were pulled from the range but can no longer
// be issued (the rest of their group's allocation failed). Left open they
// would pin the global base forever.
func (s *Server) closeTids(tids []uint64) {
	if len(tids) == 0 {
		return
	}
	s.mu.Lock()
	for _, tid := range tids {
		s.fin.Add(tid)
	}
	s.advanceLocked()
	s.mu.Unlock()
}

// refillRange reserves fresh tids. Contiguous mode bumps the shared store
// counter by TidRange. Interleaved mode reserves a *block* of the global
// sequence and issues only this manager's residue class within it: with n
// managers, block b covers tids (b·TidRange·n, (b+1)·TidRange·n] and
// manager i issues those ≡ i+1 (mod n). Uniqueness still comes from the
// shared counter (block ids never repeat).
func (s *Server) refillRange(ctx env.Ctx) error {
	//lint:allow guardedfield Interleaved is configuration, set before Start and immutable afterwards
	if !s.Interleaved {
		hi, err := s.sc.CounterAdd(ctx, []byte(tidCounterKey), s.TidRange)
		if err != nil {
			return err
		}
		lo := uint64(hi) - uint64(s.TidRange) + 1
		s.mu.Lock()
		if lo > s.tidEnd {
			s.nextTid, s.tidEnd = lo, uint64(hi)
		}
		s.mu.Unlock()
		return nil
	}
	idx, n := s.peerIndex()
	span := s.TidRange * int64(n)
	hi, err := s.sc.CounterAdd(ctx, []byte(tidCounterKey), span)
	if err != nil {
		return err
	}
	blockLo := uint64(hi) - uint64(span) + 1 // first tid of the block
	first := blockLo + uint64(idx)
	last := first + uint64(s.TidRange-1)*uint64(n)
	s.mu.Lock()
	if first > s.tidEnd {
		s.nextTid, s.tidEnd = first, last
		// The residue classes of the other managers in this block are
		// not ours to issue; if the fleet is smaller than n (or peers
		// idle), close them immediately so the base can advance. A peer
		// that reserved its own block never collides with these tids —
		// blocks are disjoint — but two managers could reserve different
		// blocks and leave each other's residues open; closing only our
		// own block's foreign residues is handled by each manager for
		// the blocks IT reserved, so every tid has exactly one closer.
		for t := blockLo; t <= blockLo+uint64(span)-1; t++ {
			if (t-blockLo)%uint64(n) != uint64(idx) {
				s.fin.Add(t)
			}
		}
		s.advanceLocked()
	}
	s.mu.Unlock()
	return nil
}

// finish implements setCommitted/setAborted.
func (s *Server) finish(tid uint64, committed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.active, tid)
	s.fin.Add(tid)
	if committed {
		s.comm.Add(tid)
	}
	s.advanceLocked()
}

// advanceLocked normalizes the finished set and rebases the committed set
// onto the new base.
func (s *Server) advanceLocked() {
	oldBase := s.fin.Base
	s.fin.Normalize()
	if s.fin.Base == oldBase {
		return
	}
	reb := mvcc.NewSnapshot(s.fin.Base)
	for _, t := range s.comm.Members() {
		reb.Add(t)
	}
	s.comm = reb
}

// lavLocked is the lowest active version number: the smallest snapshot base
// among active transactions across the fleet (§4.2). Versions below it are
// garbage-collection candidates.
func (s *Server) lavLocked() uint64 {
	lav := s.fin.Base
	for _, a := range s.active {
		if a.base < lav {
			lav = a.base
		}
	}
	for _, p := range s.peerLav {
		if p < lav {
			lav = p
		}
	}
	return lav
}

// Lav exposes the current lav (used by the lazy background GC, §5.4).
func (s *Server) Lav() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lavLocked()
}

// syncLoop periodically publishes this manager's state to the store and
// merges the other managers' states (§4.2: "in short intervals, every
// commit manager writes its snapshot to the store and thereafter reads the
// latest snapshots of the other commit managers").
func (s *Server) syncLoop(ctx env.Ctx) {
	for {
		s.mu.Lock()
		stopped := s.stopped
		s.mu.Unlock()
		if stopped {
			return
		}
		s.closeIdleRange(ctx)
		s.pushState(ctx)
		if sc := ctx.Trace(); sc.R.Enabled() {
			s.mu.Lock()
			tick, lav := s.syncTick, s.lavLocked()
			s.mu.Unlock()
			sc.R.Instant(0, s.node.Name(), "epoch", int64(tick), int64(lav))
		}
		if len(s.Peers) > 1 {
			s.pullPeers(ctx)
			s.mu.Lock()
			s.syncTick++
			sweep := len(s.deadPeers) > 0 && s.syncTick%s.RecoveryEvery == 0
			s.mu.Unlock()
			if sweep {
				s.recoverDeadPeers(ctx)
			}
		}
		ctx.Sleep(s.SyncInterval)
	}
}

// closeIdleRange finishes the unissued remainder of the tid range if no tid
// was issued since the last tick, so the global base does not stall behind
// tids that will never run (§4.2 discusses the limitation of continuous
// ranges; this is the mitigation).
func (s *Server) closeIdleRange(ctx env.Ctx) {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Expire transactions that never reported back (see activeTTL). The
	// expired tids join fin in sorted order so its interval structure is
	// identical across runs.
	now := ctx.Now()
	var expired []uint64
	for tid, a := range s.active {
		if now-a.at > activeTTL {
			expired = append(expired, tid)
		}
	}
	slices.Sort(expired)
	for _, tid := range expired {
		delete(s.active, tid)
		s.fin.Add(tid)
	}
	if s.issuedThisTick {
		s.issuedThisTick = false
		s.advanceLocked()
		return
	}
	for s.nextTid <= s.tidEnd {
		s.fin.Add(s.nextTid)
		s.nextTid++
	}
	s.advanceLocked()
}

// activeTx records a running transaction's snapshot base and start time.
type activeTx struct {
	base uint64
	at   time.Duration
}

// pushState publishes (fin, comm, minActiveBase, unissued tid range).
func (s *Server) pushState(ctx env.Ctx) {
	s.mu.Lock()
	w := wire.NewWriter(64)
	s.fin.EncodeTo(w)
	s.comm.EncodeTo(w)
	minActive := s.fin.Base
	for _, a := range s.active {
		if a.base < minActive {
			minActive = a.base
		}
	}
	w.Uvarint(minActive)
	s.seq++
	w.Uvarint(s.seq)
	w.Uvarint(s.nextTid)
	w.Uvarint(s.tidEnd)
	payload := w.Bytes()
	s.mu.Unlock()
	//lint:allow errdiscard best-effort gossip: a failed publish leaves peers on the previous epoch and the next pushState supersedes it
	s.sc.Put(ctx, []byte(statePrefix+s.id), payload)
}

// pullPeers merges every peer's published state into ours.
func (s *Server) pullPeers(ctx env.Ctx) {
	for _, peer := range s.Peers {
		if peer == s.id {
			continue
		}
		raw, _, err := s.sc.Get(ctx, []byte(statePrefix+peer))
		if err != nil {
			continue
		}
		r := wire.NewReader(raw)
		pfin, err := mvcc.DecodeSnapshotFrom(r)
		if err != nil {
			continue
		}
		pcomm, err := mvcc.DecodeSnapshotFrom(r)
		if err != nil {
			continue
		}
		plav := r.Uvarint()
		pseq := r.Uvarint()
		pnext := r.Uvarint()
		pend := r.Uvarint()
		if r.Err() != nil {
			continue
		}
		s.mu.Lock()
		s.merge(pfin, pcomm)
		s.peerRange[peer] = [2]uint64{pnext, pend}
		if pseq == s.peerSeq[peer] {
			s.peerStale[peer]++
			if s.peerStale[peer] > s.StalePeerTicks {
				// Presumed dead: stop letting it pin the lav, and mark it
				// for transaction-log recovery (§4.4.3).
				delete(s.peerLav, peer)
				s.deadPeers[peer] = true
			}
		} else {
			s.peerSeq[peer] = pseq
			s.peerStale[peer] = 0
			s.peerLav[peer] = plav
			delete(s.deadPeers, peer) // publishing again: it is back
		}
		s.advanceLocked()
		s.mu.Unlock()
	}
}

// recoverDeadPeers reconstructs the finish facts a crashed manager took
// with it (§4.4.3). A manager's fin/comm sets are soft state pushed to the
// store every SyncInterval; a crash loses at most the last interval of
// acknowledged finish reports plus the unissued remainder of its tid range,
// and both would stall the global snapshot base forever. The durable truth
// is the transaction log (§4.4.1): a transaction is committed iff its log
// entry carries the committed flag. The sweep therefore
//
//  1. closes the dead peer's published unissued range, writing a fenced
//     log entry first so the tid can never be issued and committed later
//     (a falsely-suspected manager that still holds the range stays safe:
//     its transactions fail the log append and abort), and
//  2. walks the log over the unfinished gap and finishes every entry with
//     a recorded outcome; entries without one are fenced off as aborted
//     once they are older than RecoveryGrace, matching the recovery rule
//     for failed processing nodes.
func (s *Server) recoverDeadPeers(ctx env.Ctx) {
	s.mu.Lock()
	dead := make([]string, 0, len(s.deadPeers))
	for p := range s.deadPeers {
		dead = append(dead, p)
	}
	// Recovery issues log and storage requests per dead peer; keep that
	// order independent of map iteration.
	slices.Sort(dead)
	finBase := s.fin.Base
	s.mu.Unlock()
	if len(dead) == 0 {
		return
	}
	hi, err := s.sc.CounterAdd(ctx, []byte(tidCounterKey), 0)
	if err != nil || hi <= 0 {
		return
	}
	l := txlog.New(s.sc)

	// 1. Fence and close the unissued ranges of dead peers.
	for _, p := range dead {
		s.mu.Lock()
		rng, ok := s.peerRange[p]
		s.mu.Unlock()
		if !ok || rng[0] > rng[1] {
			continue
		}
		for tid := rng[0]; tid <= rng[1]; tid++ {
			if s.tidFinished(tid) {
				continue
			}
			s.fenceAndClose(ctx, l, tid)
		}
	}

	// 2. Sweep the log over the unfinished gap for recorded outcomes.
	now := ctx.Now()
	var entries []*txlog.Entry
	l.ScanBackward(ctx, finBase+1, uint64(hi), func(e *txlog.Entry) bool {
		entries = append(entries, e)
		return true
	})
	for _, e := range entries {
		if s.tidFinished(e.TID) {
			continue
		}
		switch {
		case e.Committed:
			s.finish(e.TID, true)
		case e.Aborted:
			s.finishAborted(ctx, e)
		case now-e.Timestamp > s.RecoveryGrace:
			// No outcome for a long time: the report was lost with the
			// dead manager. Fence, then close; the fence resolves the race
			// with an owner that is merely slow.
			if fenced, committed, err := l.MarkAborted(ctx, e.TID); err == nil {
				if committed {
					s.finish(e.TID, true)
				} else if fenced {
					s.finishAborted(ctx, e)
				}
			}
		}
	}
}

// finishAborted closes a fenced transaction found by the sweep. Its owner
// may be merely slow — still applying, or half-way through its own rollback —
// and a finished tid enters every later snapshot, so whatever versions it
// left behind must be gone first or readers would see aborted data. If the
// rollback cannot complete now the tid stays open for the next sweep.
func (s *Server) finishAborted(ctx env.Ctx, e *txlog.Entry) {
	for _, key := range e.WriteSet {
		if err := txlog.RollbackVersion(ctx, s.sc, key, e.TID); err != nil {
			return
		}
	}
	s.finish(e.TID, false)
}

// tidFinished reports whether tid is already in the finished set.
func (s *Server) tidFinished(tid uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fin.Contains(tid)
}

// fenceAndClose writes a pre-fenced log entry for a tid that was never
// issued and marks it finished. If an entry already exists the tid WAS
// issued in the dead manager's final interval; an entry with an outcome is
// applied, one without is left for the grace-period sweep.
func (s *Server) fenceAndClose(ctx env.Ctx, l *txlog.Log, tid uint64) {
	_, err := l.Append(ctx, &txlog.Entry{
		TID:       tid,
		PN:        "recovery:" + s.id,
		Timestamp: ctx.Now(),
		Aborted:   true,
	})
	if err == nil {
		s.finish(tid, false)
		return
	}
	e, err := l.Get(ctx, tid)
	if err != nil {
		return
	}
	switch {
	case e.Committed:
		s.finish(tid, true)
	case e.Aborted:
		s.finish(tid, false)
	}
}

// merge folds a peer's (fin, comm) into ours. Caller holds s.mu.
func (s *Server) merge(pfin, pcomm *mvcc.Snapshot) {
	// Union of finished sets: a higher base is a global fact (all those
	// tids finished), so take the max and the union of extras.
	if pfin.Base > s.fin.Base {
		newFin := pfin.Clone()
		for _, t := range s.fin.Members() {
			newFin.Add(t)
		}
		s.fin = newFin
	} else {
		for _, t := range pfin.Members() {
			s.fin.Add(t)
		}
	}
	if pcomm.Base > s.comm.Base {
		newComm := pcomm.Clone()
		for _, t := range s.comm.Members() {
			newComm.Add(t)
		}
		s.comm = newComm
	} else {
		for _, t := range pcomm.Members() {
			s.comm.Add(t)
		}
	}
}

// ackResp encodes a status-only response.
func ackResp(st wire.Status) []byte {
	return []byte{byte(wire.KindCMResp), byte(cmFinished), byte(st)}
}

type cmSub byte

const (
	cmStart cmSub = iota + 1
	cmFinished
	// cmStartGroup is the coalesced protocol: starts, finish notifications
	// and a (possibly delta-encoded) descriptor in one round trip.
	cmStartGroup
)
