// Buffer pooling for the encode hot path. Every encoded message used to be
// a fresh allocation; under the real transports (tcpnet/telld) that is one
// garbage buffer per message at wire rate. The pool closes the loop: Encode
// draws its scratch buffer from here, and the transport hands the bytes back
// with PutBuf once the frame is on the wire.
//
// Ownership discipline — this is the part that keeps pooling correct:
//
//   - GetWriter/Finish transfer buffer ownership to the caller. Nothing is
//     recycled implicitly, so call sites that never PutBuf behave exactly as
//     before (they just allocate less while the pool is warm).
//   - PutBuf may only be called with a buffer whose bytes are provably dead.
//     The simulated network is deliberately NOT a caller: its fault injector
//     can re-deliver a duplicated frame after the round trip returns, so a
//     recycled buffer could be scribbled over while still queued. tcpnet
//     recycles server responses after writeFrame has copied them to the
//     socket, which is safe.
//   - Decoded messages alias their input buffer (Reader.BytesN), so received
//     payloads are never pooled either.
//
// Determinism: sync.Pool is pure scratch-memory reuse — no iteration order,
// no time, no randomness observable by callers — so pooled and unpooled runs
// are byte-identical. The lint assertion in nodeps_test.go keeps it that way.
package wire

import "sync"

const (
	// defaultBufCap seeds the buffers of messages that do not size
	// themselves; typical control messages fit without growing.
	defaultBufCap = 512
	// minPooledCap guards against pooling tiny fixed responses (Pong, acks)
	// that are often shared package-level literals.
	minPooledCap = 64
	// maxPooledCap keeps pathological bulk-load frames from pinning large
	// buffers in the pool forever.
	maxPooledCap = 1 << 16
)

// pbuf boxes a byte slice for sync.Pool: storing a raw []byte in an
// interface would heap-allocate the slice header on every Put, defeating
// the zero-alloc goal. Empty wrappers cycle through wrapPool so steady state
// allocates nothing at all.
type pbuf struct{ b []byte }

var (
	writerPool sync.Pool // *Writer, buf possibly nil
	bufPool    sync.Pool // *pbuf with a live buffer
	wrapPool   sync.Pool // *pbuf with b == nil
)

// GetWriter returns a pooled Writer backed by a pooled (or fresh) buffer.
// Pair it with Finish.
func GetWriter() *Writer { return getWriter(defaultBufCap) }

// getWriter is GetWriter for a message whose encoded size is known: the
// buffer holds size bytes without growing.
func getWriter(size int) *Writer {
	w, _ := writerPool.Get().(*Writer)
	if w == nil {
		w = new(Writer)
	}
	w.buf = getBuf(size)
	return w
}

// Finish returns the encoded bytes and recycles the Writer struct. Buffer
// ownership passes to the caller; the Writer must not be used again. The
// buffer itself re-enters the pool only if the caller later hands it to
// PutBuf.
func (w *Writer) Finish() []byte {
	b := w.buf
	w.buf = nil
	writerPool.Put(w)
	return b
}

// PutBuf returns an encode buffer to the pool. Only call it when every
// reference to the bytes is dead (see the package comment for who qualifies).
// Buffers outside the pooled size band are dropped.
func PutBuf(b []byte) {
	if cap(b) < minPooledCap || cap(b) > maxPooledCap {
		return
	}
	p, _ := wrapPool.Get().(*pbuf)
	if p == nil {
		p = new(pbuf)
	}
	p.b = b[:0]
	bufPool.Put(p)
}

// getBuf returns an empty buffer of at least the given capacity. A pooled
// buffer that is too small is dropped, not returned to the pool, so a warm
// pool converges on buffers that fit the traffic. A fresh buffer is exactly
// the size asked for (but never too small to be pooled later).
func getBuf(size int) []byte {
	if p, _ := bufPool.Get().(*pbuf); p != nil {
		b := p.b
		p.b = nil
		wrapPool.Put(p)
		if cap(b) >= size {
			return b
		}
	}
	return make([]byte, 0, max(size, minPooledCap))
}
