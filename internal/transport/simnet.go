package transport

import (
	"fmt"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/trace"
)

// Fault is what a fault injector does to one message leg (request or
// response). The zero value is a clean delivery.
type Fault struct {
	// Drop loses the message: a dropped request never reaches the
	// handler, a dropped response leaves the client to time out.
	Drop bool
	// Delay is added on top of the link's modelled transfer time.
	Delay time.Duration
	// Duplicate delivers the message twice. A duplicated request runs
	// the handler twice (the first response wins); a duplicated response
	// arrives twice at the client (the second copy is discarded). The
	// duplicate leg is passed through the fault fn again — so a duplicate
	// can itself be dropped or delayed — with its Duplicate verdict
	// ignored, bounding each leg at one extra copy.
	Duplicate bool
}

// FaultFn inspects one message leg between two endpoints and returns the
// fault to apply. payload is the encoded message, so injectors can target
// specific protocols via wire.PeekKind. It runs on the kernel goroutine and
// must not block.
type FaultFn func(src, dst string, payload []byte) Fault

// SimNet is the simulated cluster network. Message delivery advances virtual
// time by the network class's latency plus size/bandwidth; handlers execute
// as simulated activities on the destination node, so their ctx.Work calls
// queue on that node's modelled CPU cores.
type SimNet struct {
	k       *sim.Kernel
	class   NetworkClass
	timeout time.Duration
	eps     map[string]*simEndpoint
	down    map[string]bool
	// DropFn, if set, drops messages between the given addresses,
	// modelling a network partition.
	DropFn func(src, dst string) bool
	// fault, if set, is consulted per message leg (internal/chaos
	// installs it via SetFaultFn).
	fault FaultFn

	stats Stats
}

type simEndpoint struct {
	addr string
	node env.Node
	h    Handler
}

// NewSimNet creates a network on kernel k with the given link parameters.
func NewSimNet(k *sim.Kernel, class NetworkClass) *SimNet {
	return &SimNet{
		k:       k,
		class:   class,
		timeout: 50 * time.Millisecond,
		eps:     make(map[string]*simEndpoint),
		down:    make(map[string]bool),
	}
}

// SetTimeout changes how long requests to dead or partitioned endpoints
// wait before failing (default 50ms of virtual time).
func (n *SimNet) SetTimeout(d time.Duration) { n.timeout = d }

// Stats returns cumulative traffic counters.
func (n *SimNet) Stats() Stats { return n.stats }

// SetDown marks addr as failed (true) or recovered (false). Requests to a
// down endpoint time out, as do responses from handlers that were running
// when the endpoint went down.
func (n *SimNet) SetDown(addr string, down bool) { n.down[addr] = down }

// SetFaultFn installs (or, with nil, removes) a per-message fault injector.
func (n *SimNet) SetFaultFn(f FaultFn) { n.fault = f }

func (n *SimNet) faultFor(src, dst string, payload []byte) Fault {
	if n.fault == nil {
		return Fault{}
	}
	return n.fault(src, dst, payload)
}

// Listen registers h as the server for addr on the given node.
func (n *SimNet) Listen(addr string, node env.Node, h Handler) error {
	if _, ok := n.eps[addr]; ok {
		return fmt.Errorf("simnet: address %q already in use", addr)
	}
	n.eps[addr] = &simEndpoint{addr: addr, node: node, h: h}
	return nil
}

// Dial opens a connection from node to addr. The endpoint need not exist
// yet; resolution happens per request.
func (n *SimNet) Dial(node env.Node, addr string) (Conn, error) {
	return &simConn{net: n, src: node, dst: addr}, nil
}

type simConn struct {
	net    *SimNet
	src    env.Node
	dst    string
	closed bool
}

func (c *simConn) Close() error {
	c.closed = true
	return nil
}

func (c *simConn) reachable() bool {
	n := c.net
	if n.down[c.dst] || n.down[c.src.Name()] {
		return false
	}
	if n.DropFn != nil && n.DropFn(c.src.Name(), c.dst) {
		return false
	}
	_, ok := n.eps[c.dst]
	return ok
}

// TransferTime reports the modelled wire time for a payload of b bytes on
// this connection's link (the transport.TransferTimer interface).
func (c *simConn) TransferTime(b int) time.Duration { return c.net.class.TransferTime(b) }

// simCall is one RoundTrip in flight. The kernel fires it when (a copy of)
// the request reaches the server; the handler activity it starts there sends
// simResponses back, and the first to arrive fills the reply slot.
type simCall struct {
	c    *simConn
	req  []byte
	flow trace.SpanID
	ep   *simEndpoint // resolved when the request arrives

	reply sim.Future // set, with no value, once resp and rflow are
	resp  []byte
	rflow trace.SpanID
}

// send puts one copy of the request on the wire.
func (call *simCall) send(extra time.Duration) {
	n := call.c.net
	n.k.AfterFire(n.class.TransferTime(len(call.req))+extra, call)
}

// Fire is the request arriving at the server.
func (call *simCall) Fire() {
	n, dst := call.c.net, call.c.dst
	ep, ok := n.eps[dst]
	if !ok || n.down[dst] {
		return // lost; client times out
	}
	call.ep = ep
	// The handler runs as an activity on the serving node.
	ep.node.Go("handler", call.handle)
}

// handle runs the endpoint's handler on the serving node and sends its
// response back.
func (call *simCall) handle(hctx env.Ctx) {
	c := call.c
	n, src, dst := c.net, c.src.Name(), c.dst
	hsc := hctx.Trace()
	var hstart time.Duration
	var hspan trace.SpanID
	if hsc.R.Enabled() {
		hsc.R.MsgRecv(call.flow, dst, int64(len(call.req)))
		hstart = hctx.Now()
		hspan = hsc.R.NewID()
		hsc.Span = hspan // handlers parent their spans here
	}
	resp := call.ep.h(hctx, call.req)
	if n.down[dst] || n.down[src] {
		return // server or client died meanwhile
	}
	rf := n.faultFor(dst, src, resp)
	if rf.Drop {
		n.stats.Dropped++
		return // lost response; client times out
	}
	r := &simResponse{call: call, data: resp}
	if hsc.R.Enabled() {
		hsc.R.Span(hspan, call.flow, dst, "handler", hstart,
			int64(len(call.req)), int64(len(resp)))
		r.flow = hsc.R.MsgSend(hspan, dst, src, int64(len(resp)))
	}
	r.send(rf.Delay)
	if rf.Duplicate {
		// The duplicate leg passes through the fault injector again so
		// dup+drop and dup+delay compose; only its Duplicate verdict is
		// ignored (one copy per leg, no duplication cascades). Seed-stable:
		// the extra draw happens exactly when a duplication fires.
		n.stats.Duplicated++
		df := n.faultFor(dst, src, resp)
		if df.Drop {
			n.stats.Dropped++
		} else {
			r.send(df.Delay)
		}
	}
}

// simResponse is one handler run's response and its trace flow id on the way
// back to the client. A duplicated request has two, with their own bytes.
type simResponse struct {
	call *simCall
	data []byte
	flow trace.SpanID
}

// send puts one copy of the response on the wire.
func (r *simResponse) send(extra time.Duration) {
	n := r.call.c.net
	n.k.AfterFire(n.class.TransferTime(len(r.data))+extra, r)
}

// Fire is the response arriving at the client. The first arrival wins; later
// copies are discarded (the reply slot is write-once).
func (r *simResponse) Fire() {
	call := r.call
	if call.reply.IsSet() {
		return
	}
	call.c.net.stats.BytesRecv += uint64(len(r.data))
	call.resp, call.rflow = r.data, r.flow
	call.reply.Set(nil)
}

// RoundTrip sends req to the destination endpoint and blocks the calling
// activity until the response has travelled back.
func (c *simConn) RoundTrip(ctx env.Ctx, req []byte) ([]byte, error) {
	if c.closed {
		return nil, ErrClosed
	}
	n := c.net
	n.stats.Requests++
	n.stats.BytesSent += uint64(len(req))

	sc := ctx.Trace()
	var t0 time.Duration
	if sc.Agg != nil {
		t0 = ctx.Now()
	}

	if !c.reachable() {
		ctx.Sleep(n.timeout)
		sc.Agg.Add(trace.CompNetwork, n.timeout)
		return nil, ErrTimeout
	}

	call := &simCall{c: c, req: req}
	call.flow = sc.R.MsgSend(sc.Span, c.src.Name(), c.dst, int64(len(req)))
	qf := n.faultFor(c.src.Name(), c.dst, req)
	if qf.Drop {
		n.stats.Dropped++
		ctx.Sleep(n.timeout)
		sc.Agg.Add(trace.CompNetwork, n.timeout)
		return nil, ErrTimeout
	}
	call.send(qf.Delay)
	if qf.Duplicate {
		// As on the response leg: the duplicate request is itself subject
		// to drop/delay faults (fresh draw), but never duplicates again.
		n.stats.Duplicated++
		df := n.faultFor(c.src.Name(), c.dst, req)
		if df.Drop {
			n.stats.Dropped++
		} else {
			call.send(df.Delay)
		}
	}

	if _, ok := call.reply.GetTimeout(simProc(ctx), n.timeout); !ok {
		sc.Agg.Add(trace.CompNetwork, ctx.Now()-t0)
		return nil, ErrTimeout
	}
	resp := call.resp
	sc.R.MsgRecv(call.rflow, c.src.Name(), int64(len(resp)))
	if sc.R.Enabled() {
		sc.R.CounterAdd(c.src.Name(), "net/msgs", 1)
		sc.R.CounterAdd(c.src.Name(), "net/bytes", int64(len(req)+len(resp)))
	}
	if sc.Agg != nil {
		// Split the round trip into wire time and remote service (handler
		// execution + remote queueing), clamped to the measured total.
		total := ctx.Now() - t0
		net := n.class.TransferTime(len(req)) + n.class.TransferTime(len(resp))
		if net > total {
			net = total
		}
		sc.Agg.Add(trace.CompNetwork, net)
		sc.Agg.Add(trace.CompRemote, total-net)
	}
	return resp, nil
}

// simProc extracts the simulation process behind ctx; SimNet only works
// with simulated contexts.
func simProc(ctx env.Ctx) *sim.Proc {
	k := env.Kernel(ctx)
	if k == nil {
		panic("transport: SimNet used with a non-simulated context")
	}
	return env.Proc(ctx)
}
