// Package wire defines the binary message format spoken between processing
// nodes, storage nodes, commit managers and the management node. The same
// encoding is used over every transport (simulated network, in-process
// channels, TCP), so message sizes — which feed the simulator's bandwidth
// model — are the real encoded sizes.
//
// Encoding is little-endian with unsigned varints for lengths and counts
// (encoding/binary); byte strings are length-prefixed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrTruncated is returned when a message ends before its declared content.
var ErrTruncated = errors.New("wire: truncated message")

// Writer appends primitive values to a byte buffer.
type Writer struct {
	buf []byte
}

// NewWriter returns a writer with the given initial capacity.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// AppendWriter returns a writer that appends to dst, so a caller can encode
// into a buffer it reuses.
func AppendWriter(dst []byte) *Writer { return &Writer{buf: dst} }

// Bytes returns the encoded buffer.
func (w *Writer) Bytes() []byte { return w.buf }

// Truncate shortens the buffer to its first n bytes, keeping its capacity, so
// one Writer can encode a run of messages behind a fixed-size prefix.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Byte appends a single byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Uvarint appends v in unsigned varint encoding.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint appends v in signed (zig-zag) varint encoding.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// U64 appends v as 8 fixed little-endian bytes.
func (w *Writer) U64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

// U32 appends v as 4 fixed little-endian bytes.
func (w *Writer) U32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
	} else {
		w.Byte(0)
	}
}

// BytesN appends b length-prefixed with a uvarint.
func (w *Writer) BytesN(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// UvarintLen is the number of bytes Uvarint appends for v. With varintLen
// and bytesNLen it lets a message compute its encoded size before encoding.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func varintLen(v int64) int   { return UvarintLen(uint64(v<<1) ^ uint64(v>>63)) }
func bytesNLen(n int) int     { return UvarintLen(uint64(n)) + n }

// String appends s length-prefixed with a uvarint.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader consumes primitive values from a byte buffer. Decoding errors are
// sticky: once an error occurs, all further reads return zero values and
// Err reports the failure.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Reset re-targets the reader at buf, clearing position and error so a
// stack-allocated Reader can be reused across messages without allocating.
func (r *Reader) Reset(buf []byte) {
	r.buf = buf
	r.off = 0
	r.err = nil
}

// Err returns the first decoding error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

// Byte reads a single byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.buf) {
		r.fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed (zig-zag) varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// U64 reads 8 fixed little-endian bytes.
func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

// U32 reads 4 fixed little-endian bytes.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

// Bool reads a boolean byte.
func (r *Reader) Bool() bool { return r.Byte() != 0 }

// BytesN reads a uvarint-length-prefixed byte string. The returned slice
// aliases the underlying buffer.
func (r *Reader) BytesN() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if uint64(r.Remaining()) < n {
		r.fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String reads a uvarint-length-prefixed string.
func (r *Reader) String() string { return string(r.BytesN()) }

// Count reads an element count and validates it against the bytes remaining
// in the buffer, assuming each element occupies at least minBytes. This
// bounds slice pre-allocation when decoding untrusted input.
func (r *Reader) Count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if minBytes < 1 {
		minBytes = 1
	}
	if n > uint64(r.Remaining()/minBytes) {
		r.fail()
		return 0
	}
	return int(n)
}

// Expect returns an error unless the whole buffer was consumed cleanly.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}
