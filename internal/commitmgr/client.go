package commitmgr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/wire"
)

// ErrUnavailable means no commit manager could be reached.
var ErrUnavailable = errors.New("commitmgr: no commit manager available")

// ErrClosed means the client was closed.
var ErrClosed = errors.New("commitmgr: client closed")

// Client is the PN-side interface to the commit-manager fleet. If the
// current manager becomes unreachable, the client switches to the next one
// (§4.4.3: "if a commit manager becomes unavailable, PNs automatically
// switch to the next one").
//
// By default the client coalesces the commit path: all Start and
// QueueFinish/Aborted calls funnel through one sender activity that packs
// whatever is pending — up to maxGroup starts plus the buffered finish
// notifications — into a single grouped round trip sharing one descriptor
// fetch, delta-encoded against the last descriptor acknowledged. While one
// request is in flight the next group accumulates, so under load the
// protocol self-paces toward large groups and steady-state CM messages per
// transaction drop well below the 2 (one start, one finished) of the split
// protocol. Every call still blocks until its operation is acknowledged, so
// ordering guarantees are unchanged: when a commit's Finish.Wait returns,
// a subsequent Start anywhere sees the commit (modulo multi-manager sync
// lag, as before). QueueFinish splits a finish into queueing the note and
// waiting for its acknowledgement, so a PN worker can queue it and leave
// the wait to the transaction's caller. Set Coalesce=false for the original
// one-RPC-per-call protocol.
type Client struct {
	envr env.Full
	node env.Node

	// Coalesce enables the grouped protocol (see type comment).
	Coalesce bool
	// DeltaSnapshots lets the manager send descriptor deltas instead of
	// full bitsets. Only meaningful with Coalesce.
	DeltaSnapshots bool
	// Resil drives grouped-request retries: capped backoff with seeded
	// jitter, resending the identical bytes each attempt so the manager's
	// dedup window can replay rather than re-execute. No circuit breaker —
	// roundTrip already rotates through the whole fleet per attempt.
	Resil *resil.Retrier

	conns *transport.ConnSet

	mu     sanitize.Mutex
	addrs  []string
	cur    int
	closed bool
	// cmSeq numbers grouped requests for the dedup token; clientID names
	// this client instance in tokens and descriptor-delta tracking (unique
	// per instance so two clients on one node cannot collide).
	cmSeq    uint64
	clientID string
	// Coalescer state. Only the sender activity performs grouped RPCs and
	// touches the delta-descriptor cache; the mutex covers what crosses
	// activities (stats counters, closed flag).
	startQ   env.Queue
	senderOn bool
	lastSrv  string
	lastSeq  uint64
	lastSnap *mvcc.Snapshot
	nMsgs    uint64
	nStarts  uint64
}

const (
	// soloRetries is how many times the split protocol retries a start
	// whose response did not decode (each try rotates through the fleet).
	soloRetries = 2
	// maxGroup caps how many concurrent Start calls share one request.
	maxGroup = 16
	// finFlush is how long a group holding only finish notifications waits
	// for a Start to piggyback on before going out alone: each finish can
	// wait a few network round trips for company.
	finFlush = 100 * time.Microsecond
)

// cmClientInstances numbers client instances for token identity, per
// environment: ids go into wire idempotency tokens, so a process-global
// counter would make one run's message bytes (and its simulated timing)
// depend on how many runs preceded it in the same process. Entries are
// never deleted; environments are few and small per process.
var (
	cmClientInstMu sync.Mutex
	cmClientInst   = make(map[env.Env]uint64)
)

func nextCMClientID(envr env.Env, node string) string {
	cmClientInstMu.Lock()
	defer cmClientInstMu.Unlock()
	cmClientInst[envr]++
	return fmt.Sprintf("%s#%d", node, cmClientInst[envr])
}

// NewClient creates a client that talks to the managers at addrs. The
// coalesced protocol is on by default.
func NewClient(envr env.Full, node env.Node, tr transport.Transport, addrs []string) *Client {
	c := &Client{
		envr:           envr,
		node:           node,
		Coalesce:       true,
		DeltaSnapshots: true,
		Resil:          resil.NewRetrier(),
		addrs:          append([]string(nil), addrs...),
		conns:          transport.NewConnSet(tr, node),
		clientID:       nextCMClientID(envr, nodeLabel(node)),
	}
	c.mu.SetName("commitmgr.Client.mu")
	return c
}

// nextSeq issues the next grouped-request idempotency token.
func (c *Client) nextSeq() uint64 {
	c.mu.Lock()
	c.cmSeq++
	s := c.cmSeq
	c.mu.Unlock()
	return s
}

// Msgs returns how many CM round trips this client has issued.
func (c *Client) Msgs() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nMsgs
}

// Started returns how many transaction starts this client has served.
func (c *Client) Started() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nStarts
}

// Close shuts the coalescer down. Operations already queued are still
// served (the sender drains the queue before exiting); new calls fail with
// ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	q := c.startQ
	c.mu.Unlock()
	if q != nil {
		q.Close()
	}
}

// roundTrip tries the current manager, rotating through the fleet on
// failure. It returns the connection that served the request so callers can
// model its wire time.
func (c *Client) roundTrip(ctx env.Ctx, req []byte) ([]byte, transport.Conn, error) {
	c.mu.Lock()
	n := len(c.addrs)
	start := c.cur
	c.nMsgs++
	c.mu.Unlock()
	ctx.Trace().R.CounterAdd(nodeLabel(c.node), "cm/msgs", 1)
	for i := 0; i < n; i++ {
		addr := c.addrs[(start+i)%n]
		conn, err := c.conns.Get(addr)
		if err != nil {
			continue
		}
		//lint:allow ctxdeadline fleet-rotation primitive: grouped callers wrap it in Resil.Do(ClassCM); the solo path bounds retries with soloRetries
		resp, err := conn.RoundTrip(ctx, req)
		if err != nil {
			continue
		}
		if i != 0 {
			c.mu.Lock()
			c.cur = (start + i) % n
			c.mu.Unlock()
		}
		return resp, conn, nil
	}
	return nil, nil, ErrUnavailable
}

func nodeLabel(n env.Node) string {
	if n == nil {
		return "?"
	}
	return n.Name()
}

// StartResult is everything a transaction receives at begin (§4.2).
type StartResult struct {
	TID  uint64
	Snap *mvcc.Snapshot
	Lav  uint64
}

// startWaiter is one coalesced Start call parked on the sender queue; its
// future resolves to a startOutcome. span/enq mirror the store batcher's
// pendingOp: the submitting transaction's span parents the group's network
// flow, and enq feeds the blocked-time attribution.
type startWaiter struct {
	fut  env.Future
	span trace.SpanID
	enq  time.Duration
}

// Finish is one queued finish notification (setCommitted/setAborted,
// §4.2). Under the coalesced protocol its future resolves to a finOutcome
// once the sender's group carrying it is acknowledged; on the split
// protocol fut is nil and Wait sends the notification itself.
type Finish struct {
	c    *Client
	note FinNote
	fut  env.Future
	err  error // the note could not be queued
	span trace.SpanID
	enq  time.Duration
}

// rpcTiming is the timing split the sender observed for one grouped round
// trip (zero when untraced): queue wait before the request left, and the
// modelled wire time; the waiter books the rest of its blocked time as
// remote service.
type rpcTiming struct {
	qwait time.Duration
	net   time.Duration
}

// startOutcome is what a startWaiter's future resolves to.
type startOutcome struct {
	res StartResult
	err error
	t   rpcTiming
}

// finOutcome is what a Finish's future resolves to.
type finOutcome struct {
	err error
	t   rpcTiming
}

// Start begins a new transaction.
func (c *Client) Start(ctx env.Ctx) (StartResult, error) {
	if !c.Coalesce {
		return c.startSolo(ctx)
	}
	w := &startWaiter{fut: c.envr.NewFuture(), span: ctx.Trace().Span, enq: ctx.Now()}
	if err := c.enqueue(w); err != nil {
		return StartResult{}, err
	}
	sc := ctx.Trace()
	var waitStart time.Duration
	if sc.Agg != nil {
		waitStart = ctx.Now()
	}
	out := w.fut.Get(ctx).(startOutcome)
	if sc.Agg != nil {
		attributeWait(sc, ctx.Now()-waitStart, out.t)
	}
	return out.res, out.err
}

// attributeWait splits time blocked on the coalescer into the components
// the sender observed: queue wait before the group left, modelled wire
// time, and the remainder as remote service (same split as the store
// batcher's waiter side).
func attributeWait(sc *trace.Scope, total time.Duration, t rpcTiming) {
	q, net := t.qwait, t.net
	if q > total {
		q = total
	}
	if net > total-q {
		net = total - q
	}
	sc.Agg.Add(trace.CompPoolWait, q)
	sc.Agg.Add(trace.CompNetwork, net)
	sc.Agg.Add(trace.CompRemote, total-q-net)
}

// Aborted reports an abort after rollback (setAborted, §4.2) and blocks
// until the manager acknowledges it.
func (c *Client) Aborted(ctx env.Ctx, tid uint64) error {
	return c.QueueFinish(ctx, tid, false).Wait(ctx)
}

// QueueFinish hands tid's finish notification to the client without
// waiting for it. Under the coalesced protocol the note joins the sender
// queue at once, so a Start queued after it by any activity rides the same
// group or a later one, and the manager applies a group's finishes before
// it hands out snapshots. On the split protocol nothing is sent until Wait.
func (c *Client) QueueFinish(ctx env.Ctx, tid uint64, committed bool) *Finish {
	f := &Finish{c: c, note: FinNote{TID: tid, Committed: committed}}
	if !c.Coalesce {
		return f
	}
	f.fut, f.span, f.enq = c.envr.NewFuture(), ctx.Trace().Span, ctx.Now()
	f.err = c.enqueue(f)
	return f
}

// Wait blocks until the manager has acknowledged the notification and
// returns the outcome. Any activity may wait, not only the one that queued
// it; the wait is charged to ctx's transaction.
func (f *Finish) Wait(ctx env.Ctx) error {
	if f.err != nil {
		return f.err
	}
	if f.fut == nil {
		return f.c.finished(ctx, f.note.TID, f.note.Committed)
	}
	sc := ctx.Trace()
	var waitStart time.Duration
	if sc.Agg != nil {
		waitStart = ctx.Now()
	}
	out := f.fut.Get(ctx).(finOutcome)
	if sc.Agg != nil {
		attributeWait(sc, ctx.Now()-waitStart, out.t)
	}
	return out.err
}

// enqueue parks w on the sender queue, starting the sender on first use.
func (c *Client) enqueue(w any) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.startQ == nil {
		c.startQ = c.envr.NewQueue()
	}
	q := c.startQ
	spawn := !c.senderOn
	c.senderOn = true
	c.mu.Unlock()
	if spawn {
		c.node.Go("cm-sender", c.senderLoop)
	}
	q.Put(w)
	return nil
}

// senderLoop is the only activity that issues grouped RPCs: it drains the
// queue into one bounded group and sends a single request for all of it.
// Requests self-pace — while one round trip is in flight the next group
// accumulates.
func (c *Client) senderLoop(ctx env.Ctx) {
	for {
		v, ok := c.startQ.Get(ctx)
		if !ok {
			return
		}
		starts, fins := c.collectGroup(ctx, v)
		c.sendGroup(ctx, starts, fins)
	}
}

// collectGroup greedily drains the queue into one group, starting from
// first. A group holding only finish notifications lingers up to finFlush
// for a Start to share the round trip with.
func (c *Client) collectGroup(ctx env.Ctx, first any) (starts []*startWaiter, fins []*Finish) {
	add := func(v any) {
		switch w := v.(type) {
		case *startWaiter:
			starts = append(starts, w)
		case *Finish:
			fins = append(fins, w)
		}
	}
	add(first)
	drain := func() {
		for len(starts) < maxGroup && len(fins) < maxGroupFins {
			v, ok := c.startQ.TryGet()
			if !ok {
				return
			}
			add(v)
		}
	}
	drain()
	if len(starts) == 0 {
		deadline := ctx.Now() + finFlush
		for len(starts) == 0 && len(fins) < maxGroupFins {
			rem := deadline - ctx.Now()
			if rem <= 0 {
				break
			}
			v, ok, timedOut := c.startQ.GetTimeout(ctx, rem)
			if timedOut || !ok {
				break
			}
			add(v)
			drain()
		}
	}
	return starts, fins
}

// sendGroup issues one grouped request and resolves every waiter.
func (c *Client) sendGroup(ctx env.Ctx, starts []*startWaiter, fins []*Finish) {
	notes := make([]FinNote, len(fins))
	for i, f := range fins {
		notes[i] = f.note
	}
	// Parent the group's network flow on the first traced waiter's span so
	// the exported trace stitches transactions to the manager even though
	// the round trip runs on the sender's own activity.
	sc := ctx.Trace()
	if sc.R.Enabled() {
		sc.Span = 0
		for _, w := range starts {
			if w.span != 0 {
				sc.Span = w.span
				break
			}
		}
		if sc.Span == 0 {
			for _, f := range fins {
				if f.span != 0 {
					sc.Span = f.span
					break
				}
			}
		}
	}
	// Build the request ONCE, with a fresh idempotency token: every retry
	// resends the identical bytes, so a manager that already executed the
	// group replays its cached response (same tids, same descriptor, same
	// sequence number — the ack chain survives a lost response). Rebuilding
	// per attempt would change the ack fields and break that identity.
	req := c.buildGroupReq(len(starts), notes)
	var sendAt time.Duration
	var raw []byte
	var conn transport.Conn
	var results []StartResult
	err := c.Resil.Do(ctx, resil.ClassCM, cmFleet, func(int) error {
		if sc.R.Enabled() {
			sendAt = ctx.Now()
		}
		var rtErr error
		raw, conn, rtErr = c.roundTrip(ctx, req)
		if rtErr != nil {
			return rtErr
		}
		resp, rtErr := DecodeStartGroupResp(raw)
		if rtErr != nil {
			return resil.Permanent(rtErr)
		}
		if resp.Status != wire.StatusOK {
			// Unavailable (racing duplicate, tid range exhausted) and
			// Overload (shed by admission control) are transient: back off
			// and resend the same bytes.
			return fmt.Errorf("commitmgr: grouped start failed: %v", resp.Status)
		}
		results, rtErr = c.applyGroupResp(resp, len(starts))
		if rtErr != nil {
			return resil.Permanent(rtErr)
		}
		return nil
	})
	if err == nil {
		var net time.Duration
		if sc.R.Enabled() {
			if tt, ok := conn.(transport.TransferTimer); ok {
				net = tt.TransferTime(len(req)) + tt.TransferTime(len(raw))
			}
		}
		c.mu.Lock()
		c.nStarts += uint64(len(starts))
		c.mu.Unlock()
		for i, w := range starts {
			out := startOutcome{res: results[i]}
			if sc.R.Enabled() {
				out.t = rpcTiming{qwait: sendAt - w.enq, net: net}
			}
			w.fut.Set(out)
		}
		for _, f := range fins {
			out := finOutcome{}
			if sc.R.Enabled() {
				out.t = rpcTiming{qwait: sendAt - f.enq, net: net}
			}
			f.fut.Set(out)
		}
		return
	}
	// Out of attempts. The ack chain may be mid-step (a manager could have
	// advanced its per-client sequence on a response we never applied), so
	// force a full descriptor next time. (The unapplied finish notes are
	// safe to re-send later — finish is idempotent on the manager.)
	c.resetDeltaState()
	for _, w := range starts {
		w.fut.Set(startOutcome{err: err})
	}
	for _, f := range fins {
		f.fut.Set(finOutcome{err: err})
	}
}

// cmFleet is the breaker/schedule label for grouped requests: roundTrip
// rotates through every manager per attempt, so retries are per-fleet, not
// per-endpoint.
const cmFleet = "cm-fleet"

func (c *Client) buildGroupReq(count int, fins []FinNote) []byte {
	req := StartGroupReq{Client: c.clientID, Seq: c.nextSeq(), Count: uint64(count), Fins: fins}
	if c.DeltaSnapshots {
		req.AckServer, req.AckSeq = c.lastSrv, c.lastSeq
	}
	return req.Encode()
}

// applyGroupResp reconstructs the shared descriptor (resolving a delta
// against the cached base) and fans it out, one clone per waiter.
func (c *Client) applyGroupResp(resp *StartGroupResp, want int) ([]StartResult, error) {
	if len(resp.TIDs) != want {
		return nil, fmt.Errorf("commitmgr: got %d tids, want %d", len(resp.TIDs), want)
	}
	var snap *mvcc.Snapshot
	if resp.Full {
		snap = resp.Snap
	} else {
		if c.lastSnap == nil || c.lastSrv != resp.Server {
			return nil, fmt.Errorf("commitmgr: delta response without matching base descriptor")
		}
		applied, err := resp.Delta.Apply(c.lastSnap)
		if err != nil {
			return nil, err
		}
		snap = applied
	}
	if resp.Seq != 0 {
		c.lastSrv, c.lastSeq, c.lastSnap = resp.Server, resp.Seq, snap
	}
	out := make([]StartResult, want)
	for i := range out {
		out[i] = StartResult{TID: resp.TIDs[i], Snap: snap.Clone(), Lav: resp.Lav}
	}
	return out, nil
}

func (c *Client) resetDeltaState() {
	c.lastSrv, c.lastSeq, c.lastSnap = "", 0, nil
}

// startSolo is the split protocol: one start RPC per transaction.
func (c *Client) startSolo(ctx env.Ctx) (StartResult, error) {
	req := []byte{byte(wire.KindCMReq), byte(cmStart)}
	for attempt := 0; ; attempt++ {
		raw, _, err := c.roundTrip(ctx, req)
		if err != nil {
			return StartResult{}, err
		}
		res, err := decodeStartResp(raw)
		if err == nil {
			c.mu.Lock()
			c.nStarts++
			c.mu.Unlock()
			return res, nil
		}
		if attempt >= soloRetries {
			return StartResult{}, err
		}
		ctx.Sleep(time.Millisecond)
	}
}

func decodeStartResp(raw []byte) (StartResult, error) {
	r := wire.NewReader(raw)
	if wire.Kind(r.Byte()) != wire.KindCMResp {
		return StartResult{}, fmt.Errorf("commitmgr: bad response kind")
	}
	sub := cmSub(r.Byte())
	st := wire.Status(r.Byte())
	if sub != cmStart || st != wire.StatusOK {
		return StartResult{}, fmt.Errorf("commitmgr: start failed: %v", st)
	}
	tid := r.Uvarint()
	snap, err := mvcc.DecodeSnapshotFrom(r)
	if err != nil {
		return StartResult{}, err
	}
	lav := r.Uvarint()
	if err := r.Close(); err != nil {
		return StartResult{}, err
	}
	return StartResult{TID: tid, Snap: snap, Lav: lav}, nil
}

// finished is the split protocol's one-RPC-per-outcome notification.
func (c *Client) finished(ctx env.Ctx, tid uint64, committed bool) error {
	w := wire.NewWriter(16)
	w.Byte(byte(wire.KindCMReq))
	w.Byte(byte(cmFinished))
	w.Uvarint(tid)
	w.Bool(committed)
	raw, _, err := c.roundTrip(ctx, w.Bytes())
	if err != nil {
		return err
	}
	r := wire.NewReader(raw)
	r.Byte() // kind
	r.Byte() // sub
	if st := wire.Status(r.Byte()); st != wire.StatusOK {
		return fmt.Errorf("commitmgr: finished(%d) failed: %v", tid, st)
	}
	return nil
}
