// This file is the real-TCP transport behind cmd/telld and cmd/tellcli. It
// never executes under the DES kernel, so the determinism analyzers are
// waived for the whole file:
//
//lint:allow nogoroutine real-network transport; connection handling needs real goroutines and never runs under the sim kernel
//lint:allow nowallclock real-network transport; round-trip timeouts are genuine wall-clock deadlines
//lint:allow maporder real-network transport; in-flight-request teardown order is not simulation-visible

package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"tell/internal/env"
	"tell/internal/sanitize"
	"tell/internal/trace"
	"tell/internal/wire"
)

// TCPNet carries requests over real TCP connections. Frames are
// [uint32 length][uint64 request id][uint64 trace flow][payload]; responses
// echo the request id, so a single connection multiplexes many in-flight
// requests. The flow field carries the sender's trace message id across the
// wire, so a process that records traces can stitch handler spans to the
// requesting transaction exactly like simnet and localnet do. This is the
// transport behind cmd/telld and cmd/tellcli.
type TCPNet struct {
	// Timeout bounds each round trip (default 10s).
	Timeout time.Duration

	mu        sanitize.Mutex
	listeners []net.Listener
}

// NewTCPNet returns a TCP transport.
func NewTCPNet() *TCPNet {
	t := &TCPNet{Timeout: 10 * time.Second}
	t.mu.SetName("transport.TCPNet.mu")
	return t
}

// Close shuts down all listeners.
func (t *TCPNet) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var err error
	for _, l := range t.listeners {
		if e := l.Close(); e != nil && err == nil {
			err = e
		}
	}
	t.listeners = nil
	return err
}

const (
	maxFrame    = 64 << 20 // 64 MiB sanity bound on a single frame
	frameHdrLen = 20       // u32 length + u64 request id + u64 trace flow
)

// framer owns the preallocated header scratch for one direction of one
// connection, so steady-state frame I/O allocates nothing beyond the
// payload. A framer must not be shared between concurrent writers (callers
// serialize on the connection's write mutex) or concurrent readers (each
// read loop owns its own).
type framer struct {
	hdr [frameHdrLen]byte
}

func (f *framer) writeFrame(w io.Writer, id, flow uint64, payload []byte) error {
	binary.LittleEndian.PutUint32(f.hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint64(f.hdr[4:], id)
	binary.LittleEndian.PutUint64(f.hdr[12:], flow)
	if _, err := w.Write(f.hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func (f *framer) readFrame(r io.Reader) (id, flow uint64, payload []byte, err error) {
	if _, err := io.ReadFull(r, f.hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.LittleEndian.Uint32(f.hdr[:])
	if n > maxFrame {
		return 0, 0, nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds limit", n)
	}
	id = binary.LittleEndian.Uint64(f.hdr[4:])
	flow = binary.LittleEndian.Uint64(f.hdr[12:])
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return id, flow, payload, nil
}

// Listen binds a real TCP listener on addr (host:port) and serves requests
// with h. Handler invocations run as activities on node.
func (t *TCPNet) Listen(addr string, node env.Node, h Handler) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	t.mu.Lock()
	t.listeners = append(t.listeners, l)
	t.mu.Unlock()
	go t.acceptLoop(l, node, h)
	return nil
}

func (t *TCPNet) acceptLoop(l net.Listener, node env.Node, h Handler) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go t.serveConn(c, node, h)
	}
}

func (t *TCPNet) serveConn(c net.Conn, node env.Node, h Handler) {
	//lint:allow errdiscard server-side teardown of a connection whose peer already went away
	defer c.Close()
	var wmu sanitize.Mutex
	wmu.SetName("transport.serveConn.wmu")
	var rf, wf framer // rf owned by this loop; wf guarded by wmu
	peer := c.RemoteAddr().String()
	for {
		id, flow, payload, err := rf.readFrame(c)
		if err != nil {
			return
		}
		node.Go("tcp-handler", func(ctx env.Ctx) {
			// Mirror the simnet/localnet handler instrumentation: receive
			// the request on the flow the client stamped into the frame,
			// run the handler under its own span parented on that flow,
			// then send the response back on a fresh flow that the client
			// will receive. The ids only stitch into one trace when client
			// and server share a process (tests, single-binary clusters);
			// across real processes they are still recorded and harmless.
			sc := ctx.Trace()
			srvName := nodeName(node)
			var hstart time.Duration
			var hspan trace.SpanID
			if sc.R.Enabled() {
				sc.R.MsgRecv(trace.SpanID(flow), srvName, int64(len(payload)))
				hstart = ctx.Now()
				hspan = sc.R.NewID()
				sc.Span = hspan // handlers parent their spans here
			}
			resp := h(ctx, payload)
			var rflow uint64
			if sc.R.Enabled() {
				sc.R.Span(hspan, trace.SpanID(flow), srvName, "handler", hstart,
					int64(len(payload)), int64(len(resp)))
				rflow = uint64(sc.R.MsgSend(hspan, srvName, peer, int64(len(resp))))
				sc.R.CounterAdd(srvName, "net/msgs", 1)
				sc.R.CounterAdd(srvName, "net/bytes", int64(len(payload)+len(resp)))
			}
			wmu.Lock()
			err := wf.writeFrame(c, id, rflow, resp)
			wmu.Unlock()
			if err != nil {
				//lint:allow errdiscard the write already failed; Close is a best-effort kick so the read loop exits too
				c.Close()
				return
			}
			// The response bytes are on the socket and the handler has
			// relinquished ownership (Handler contract), so the buffer can
			// be recycled into the encoder pool. Tiny shared literals are
			// rejected by PutBuf's capacity band.
			wire.PutBuf(resp)
		})
	}
}

// Dial connects to addr over TCP.
func (t *TCPNet) Dial(node env.Node, addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, t.Timeout)
	if err != nil {
		return nil, err
	}
	tc := &tcpConn{
		net:     t,
		src:     node,
		dst:     addr,
		conn:    c,
		pending: make(map[uint64]chan tcpReply),
	}
	tc.wmu.SetName("transport.tcpConn.wmu")
	tc.mu.SetName("transport.tcpConn.mu")
	go tc.readLoop()
	return tc, nil
}

// tcpReply carries a response and its trace flow id back to the waiter.
type tcpReply struct {
	flow uint64
	data []byte
}

type tcpConn struct {
	net  *TCPNet
	src  env.Node
	dst  string
	conn net.Conn

	wmu sanitize.Mutex // serializes frame writes; wf's scratch lives under it
	wf  framer

	mu      sanitize.Mutex
	nextID  uint64
	pending map[uint64]chan tcpReply
	closed  bool
}

func (c *tcpConn) Close() error {
	c.mu.Lock()
	c.closed = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *tcpConn) readLoop() {
	var rf framer // owned by this loop
	for {
		id, flow, payload, err := rf.readFrame(c.conn)
		if err != nil {
			//lint:allow errdiscard the read already failed; Close just fails pending callers so they can retry elsewhere
			c.Close()
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[id]
		if ok {
			delete(c.pending, id)
		}
		c.mu.Unlock()
		if ok {
			ch <- tcpReply{flow: flow, data: payload}
		}
	}
}

func (c *tcpConn) RoundTrip(ctx env.Ctx, req []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.nextID++
	id := c.nextID
	ch := make(chan tcpReply, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	sc := ctx.Trace()
	var srcName string
	var flow trace.SpanID
	if sc.R.Enabled() {
		srcName = nodeName(c.src)
		flow = sc.R.MsgSend(sc.Span, srcName, c.dst, int64(len(req)))
	}

	c.wmu.Lock()
	err := c.wf.writeFrame(c.conn, id, uint64(flow), req)
	c.wmu.Unlock()
	if err != nil {
		c.forget(id)
		return nil, err
	}

	timeout := c.net.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	select {
	case rep, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		if sc.R.Enabled() {
			sc.R.MsgRecv(trace.SpanID(rep.flow), srcName, int64(len(rep.data)))
			sc.R.CounterAdd(srcName, "net/msgs", 1)
			sc.R.CounterAdd(srcName, "net/bytes", int64(len(req)+len(rep.data)))
		}
		return rep.data, nil
	case <-time.After(timeout):
		c.forget(id)
		return nil, ErrTimeout
	}
}

func (c *tcpConn) forget(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}
