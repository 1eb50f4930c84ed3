// Package transport moves encoded messages between nodes. Three
// implementations share one interface:
//
//   - simnet: runs on the discrete-event simulator, modelling per-link
//     latency and bandwidth. Used by all scalability experiments; the
//     network-class parameters (InfiniBand vs 10 GbE) reproduce §6.6.
//   - localnet: in-process delivery on real goroutines, with optional
//     injected latency. Used by unit tests and the examples.
//   - tcpnet: real TCP with length-prefixed frames and request
//     multiplexing. Used by cmd/telld and cmd/tellcli.
package transport

import (
	"errors"
	"time"

	"tell/internal/env"
)

// Handler processes one request and returns the encoded response. Handlers
// run on the serving node's execution context and should charge CPU via
// ctx.Work for simulation fidelity. The returned response is relinquished
// to the transport: a handler must not retain or reuse its bytes after
// returning (real-network transports recycle large response buffers into
// the wire encoder pool once written; small shared literals are safe
// because the pool rejects them).
type Handler func(ctx env.Ctx, req []byte) []byte

// Conn is a client connection to one remote address.
type Conn interface {
	// RoundTrip sends req and blocks until the response arrives.
	RoundTrip(ctx env.Ctx, req []byte) ([]byte, error)
	Close() error
}

// TransferTimer is implemented by connections whose link models wire time
// as a function of payload size (the simulated network). Tracing uses it
// to split a round trip into network and remote-service components.
type TransferTimer interface {
	TransferTime(bytes int) time.Duration
}

// Transport connects named endpoints.
type Transport interface {
	// Listen registers a handler serving addr on the given node.
	Listen(addr string, node env.Node, h Handler) error
	// Dial opens a connection from the given node to addr.
	Dial(node env.Node, addr string) (Conn, error)
}

// Errors shared by all transports.
var (
	ErrTimeout     = errors.New("transport: request timed out")
	ErrClosed      = errors.New("transport: connection closed")
	ErrUnreachable = errors.New("transport: endpoint unreachable")
)

// NetworkClass is a named set of link parameters, calibrated to the paper's
// test bed (§6.1: 40 Gbit QDR InfiniBand; §6.6: 10 Gbit Ethernet).
type NetworkClass struct {
	Name string
	// Latency is the one-way propagation plus stack delay for a minimal
	// message.
	Latency time.Duration
	// BytesPerSec is the effective link bandwidth; transfer time is
	// size/BytesPerSec on top of Latency.
	BytesPerSec float64
}

// InfiniBand models RDMA over 40 Gbit QDR InfiniBand: a few microseconds
// one-way (§2.2: "RDMA within a few microseconds").
func InfiniBand() NetworkClass {
	return NetworkClass{Name: "InfiniBand", Latency: 4 * time.Microsecond, BytesPerSec: 4e9}
}

// Ethernet10G models 10 Gbit Ethernet through the kernel TCP stack:
// the effective one-way delay including both hosts' interrupt, socket and
// scheduler costs (§6.6 observed >6× on the TPC-C against RDMA).
func Ethernet10G() NetworkClass {
	return NetworkClass{Name: "10GbE", Latency: 80 * time.Microsecond, BytesPerSec: 1.1e9}
}

// TransferTime returns the modelled one-way delay for a message of n bytes.
func (c NetworkClass) TransferTime(n int) time.Duration {
	d := c.Latency
	if c.BytesPerSec > 0 {
		d += time.Duration(float64(n) / c.BytesPerSec * float64(time.Second))
	}
	return d
}

// Stats aggregates the simulated network's traffic counters so experiments
// can report network utilisation (§6.6).
type Stats struct {
	Requests  uint64
	BytesSent uint64
	BytesRecv uint64
	// Dropped and Duplicated count message legs affected by an installed
	// fault injector.
	Dropped    uint64
	Duplicated uint64
}
