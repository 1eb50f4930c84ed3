package transport

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"tell/internal/env"
	"tell/internal/sanitize"
	"tell/internal/trace"
)

// LocalNet delivers messages in-process on real goroutines. It is the
// transport for unit tests and single-process deployments (the examples run
// a whole virtual cluster inside one binary this way).
type LocalNet struct {
	mu   sanitize.RWMutex
	eps  map[string]*localEndpoint
	down map[string]bool
}

type localEndpoint struct {
	node env.Node
	h    Handler
}

// NewLocalNet returns an empty in-process network.
func NewLocalNet() *LocalNet {
	n := &LocalNet{eps: make(map[string]*localEndpoint), down: make(map[string]bool)}
	n.mu.SetName("transport.LocalNet.mu")
	return n
}

// Listen registers h as the server for addr on the given node.
func (n *LocalNet) Listen(addr string, node env.Node, h Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.eps[addr]; ok {
		return fmt.Errorf("localnet: address %q already in use", addr)
	}
	n.eps[addr] = &localEndpoint{node: node, h: h}
	return nil
}

// Dial opens a connection from node to addr.
func (n *LocalNet) Dial(node env.Node, addr string) (Conn, error) {
	return &localConn{net: n, src: node, dst: addr}, nil
}

type localConn struct {
	net    *LocalNet
	src    env.Node
	dst    string
	closed atomic.Bool // Close may run while round trips are in flight
}

func (c *localConn) Close() error {
	c.closed.Store(true)
	return nil
}

func (c *localConn) RoundTrip(ctx env.Ctx, req []byte) ([]byte, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	n := c.net
	n.mu.RLock()
	ep, ok := n.eps[c.dst]
	isDown := n.down[c.dst]
	n.mu.RUnlock()

	if !ok || isDown {
		return nil, ErrUnreachable
	}
	sc := ctx.Trace()
	var srcName string
	var t0 time.Duration
	if sc.R.Enabled() {
		srcName = nodeName(c.src)
		t0 = ctx.Now()
	}
	flow := sc.R.MsgSend(sc.Span, srcName, c.dst, int64(len(req)))
	// The handler runs inline on the caller's goroutine but against the
	// serving node's context, so Node() reports correctly. Under the real
	// environment Work is free, so no accounting is lost.
	hctx := &detachedCtx{ctx: ctx, node: ep.node}
	var hstart time.Duration
	if sc.R.Enabled() {
		sc.R.MsgRecv(flow, c.dst, int64(len(req)))
		hstart = ctx.Now()
		hctx.sc = trace.Scope{R: sc.R, Span: sc.R.NewID()}
	}
	resp := ep.h(hctx, req)
	if sc.R.Enabled() {
		sc.R.Span(hctx.sc.Span, flow, c.dst, "handler", hstart,
			int64(len(req)), int64(len(resp)))
		rflow := sc.R.MsgSend(hctx.sc.Span, c.dst, srcName, int64(len(resp)))
		defer sc.R.MsgRecv(rflow, srcName, int64(len(resp)))
		sc.R.CounterAdd(srcName, "net/msgs", 1)
		sc.R.CounterAdd(srcName, "net/bytes", int64(len(req)+len(resp)))
	}
	if sc.Agg != nil {
		// In-process delivery has no wire time: the whole round trip is
		// remote service.
		sc.Agg.Add(trace.CompRemote, ctx.Now()-t0)
	}
	return resp, nil
}

// nodeName tolerates the nil source node of pre-instrumentation dials.
func nodeName(n env.Node) string {
	if n == nil {
		return "?"
	}
	return n.Name()
}

// detachedCtx runs a handler on the caller's goroutine while reporting the
// serving node as its home.
type detachedCtx struct {
	ctx  env.Ctx
	node env.Node
	sc   trace.Scope
}

func (d *detachedCtx) Node() env.Node               { return d.node }
func (d *detachedCtx) Now() time.Duration           { return d.ctx.Now() }
func (d *detachedCtx) Sleep(dur time.Duration)      { d.ctx.Sleep(dur) }
func (d *detachedCtx) Work(time.Duration)           {}
func (d *detachedCtx) Trace() *trace.Scope          { return &d.sc }
func (d *detachedCtx) Go(n string, f func(env.Ctx)) { d.node.Go(n, f) }
func (d *detachedCtx) Rand() *rand.Rand             { return d.ctx.Rand() }
