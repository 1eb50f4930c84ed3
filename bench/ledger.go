package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"tell/internal/env"
	"tell/internal/trace"
	"tell/internal/transport"
	"tell/internal/wire"
)

// Message kinds the ledger splits traffic by. Everything that is not one of
// the four engine protocols (pings, stats, recovery) lands in kindOther so
// the per-kind counts still sum to the network's own totals.
const (
	kindStore = iota
	kindReplicate
	kindCM
	kindMeta
	kindOther
	nKinds
)

var kindNames = [nKinds]string{"store", "replicate", "cm", "meta", "other"}

func kindOf(req []byte) int {
	switch wire.PeekKind(req) {
	case wire.KindStoreReq:
		return kindStore
	case wire.KindReplicate:
		return kindReplicate
	case wire.KindCMReq:
		return kindCM
	case wire.KindMetaReq:
		return kindMeta
	}
	return kindOther
}

// kindCounts is the running ledger for one message kind. Times are virtual.
type kindCounts struct {
	msgs, failed      uint64 // round trips issued, and those that returned an error
	bytesOut, bytesIn uint64 // request bytes sent, response bytes received
	rtt               time.Duration
	handled           uint64
	handler           time.Duration
}

// benchSpan is one span recorded by the benchmark's own files at a layer
// boundary: a transaction root, a round trip or a handler execution.
type benchSpan struct {
	name, node   string
	id, parent   uint64
	vStart, vEnd time.Duration // virtual clock
	hStart, hEnd time.Duration // host clock, since the ledger was created
}

// ledger is a transport.Transport decorator that counts and times every
// round trip and handler execution by message kind and keeps a span for
// each. It takes no virtual time, so a run through it sees the same virtual
// schedule as one without it. It is installed in the traced pass only.
type ledger struct {
	inner    transport.Transport
	rec      *trace.Recorder
	hostZero time.Time
	kinds    [nKinds]kindCounts
	spans    []benchSpan
}

func newLedger(inner transport.Transport, rec *trace.Recorder) *ledger {
	return &ledger{inner: inner, rec: rec, hostZero: time.Now()}
}

// span records one finished span; a nil ledger (untraced run) ignores it.
func (l *ledger) span(name, node string, id, parent uint64, vStart, vEnd time.Duration, hStart time.Time) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, benchSpan{
		name: name, node: node, id: id, parent: parent,
		vStart: vStart, vEnd: vEnd,
		hStart: hStart.Sub(l.hostZero), hEnd: time.Since(l.hostZero),
	})
}

func (l *ledger) Listen(addr string, node env.Node, h transport.Handler) error {
	return l.inner.Listen(addr, node, func(ctx env.Ctx, req []byte) []byte {
		k := kindOf(req)
		v0, h0 := ctx.Now(), time.Now()
		resp := h(ctx, req)
		c := &l.kinds[k]
		c.handled++
		c.handler += ctx.Now() - v0
		// The transport parents the handler's scope on its own handler span.
		l.span("handler."+kindNames[k], addr, uint64(l.rec.NewID()), uint64(ctx.Trace().Span), v0, ctx.Now(), h0)
		return resp
	})
}

func (l *ledger) Dial(node env.Node, addr string) (transport.Conn, error) {
	c, err := l.inner.Dial(node, addr)
	if err != nil {
		return nil, err
	}
	lc := &ledgerConn{Conn: c, l: l, src: node.Name()}
	// The store and commit-manager clients type-assert TransferTimer on
	// their conns to split a round trip into network and remote time; the
	// wrapper must offer it exactly when the wrapped conn does.
	if tt, ok := c.(transport.TransferTimer); ok {
		return &ledgerTimerConn{ledgerConn: lc, TransferTimer: tt}, nil
	}
	return lc, nil
}

type ledgerConn struct {
	transport.Conn
	l   *ledger
	src string
}

type ledgerTimerConn struct {
	*ledgerConn
	transport.TransferTimer
}

func (c *ledgerConn) RoundTrip(ctx env.Ctx, req []byte) ([]byte, error) {
	k := kindOf(req)
	kc := &c.l.kinds[k]
	// Counted when sent, as the network does: a round trip still in flight
	// when the run ends was a message all the same.
	kc.msgs++
	kc.bytesOut += uint64(len(req))
	v0, h0 := ctx.Now(), time.Now()
	resp, err := c.Conn.RoundTrip(ctx, req)
	kc.bytesIn += uint64(len(resp))
	kc.rtt += ctx.Now() - v0
	c.l.span("roundtrip."+kindNames[k], c.src, uint64(c.l.rec.NewID()), uint64(ctx.Trace().Span), v0, ctx.Now(), h0)
	return resp, err
}

// totals sums the ledger over all kinds.
func (l *ledger) totals() (msgs, bytesOut, bytesIn uint64) {
	for _, k := range l.kinds {
		msgs += k.msgs
		bytesOut += k.bytesOut
		bytesIn += k.bytesIn
	}
	return
}

// writeSpans writes the benchmark's spans as Chrome trace_event JSON
// (loadable at ui.perfetto.dev) on the virtual clock; span id, parent and
// host start/end ride in args.
func (l *ledger) writeSpans(w io.Writer) error {
	spans := append([]benchSpan(nil), l.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].vStart < spans[j].vStart })
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	n := 0
	emit := func(format string, args ...any) {
		if n++; n > 1 {
			bw.WriteByte(',')
		}
		bw.WriteByte('\n')
		fmt.Fprintf(bw, format, args...)
	}
	pids := map[string]int{}
	// Concurrent spans of one node would overlap on a single track; each
	// span goes to the node's first track that is free at its start.
	lanes := map[string][]time.Duration{}
	for _, s := range spans {
		pid, ok := pids[s.node]
		if !ok {
			pid = len(pids) + 1
			pids[s.node] = pid
			emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":%q}}`, pid, s.node)
		}
		lane := 0
		for lane < len(lanes[s.node]) && lanes[s.node][lane] > s.vStart {
			lane++
		}
		if lane == len(lanes[s.node]) {
			lanes[s.node] = append(lanes[s.node], 0)
		}
		lanes[s.node][lane] = s.vEnd
		emit(`{"ph":"X","cat":"bench","name":%q,"pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"host_start_us":%.3f,"host_end_us":%.3f}}`,
			s.name, pid, lane, usec(s.vStart), usec(s.vEnd-s.vStart), s.id, s.parent, usec(s.hStart), usec(s.hEnd))
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
