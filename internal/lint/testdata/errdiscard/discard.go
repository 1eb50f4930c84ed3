package errdiscard

import (
	"bytes"
	"hash/fnv"
	"io"
)

// wal stands in for any durability handle: its Sync/Close/Append errors
// guard acknowledged writes.
type wal struct{}

func (w *wal) Sync() error                  { return nil }
func (w *wal) Close() error                 { return nil }
func (w *wal) Append(b []byte) (int, error) { return len(b), nil }
func (w *wal) Ping() error                  { return nil }

func bareStatement(w *wal) {
	w.Sync() // want "result discarded"
}

func deferredDiscard(w *wal) {
	defer w.Close() // want "deferred with result discarded"
}

func blankAssign(w *wal) {
	_ = w.Sync() // want "assigned to _"
}

// Keeping the value but blanking the error is still a discard.
func keepCountDropError(w *wal) int {
	n, _ := w.Append([]byte("x")) // want "assigned to _"
	return n
}

// Handling the error is the fix.
func handled(w *wal) error {
	if err := w.Sync(); err != nil {
		return err
	}
	return w.Close()
}

// Contract-infallible writers (bytes, strings, hash) are allowlisted:
// their error results exist only to satisfy io interfaces.
func buffered(buf *bytes.Buffer) {
	buf.Write([]byte("x"))
}

// A hash's Write is declared by io.Writer, which hash.Hash embeds; the
// receiver's static type exempts it.
func hashed() uint64 {
	h := fnv.New64a()
	h.Write([]byte("x"))
	return h.Sum64()
}

// The same call through a plain io.Writer can fail.
func written(w io.Writer) {
	w.Write([]byte("x")) // want "result discarded"
}

// Non-critical names are out of scope even when an error is dropped.
func pinged(w *wal) {
	w.Ping()
}

// A justified suppression.
func allowClose(w *wal) {
	//lint:allow errdiscard fixture: teardown of an abandoned handle
	w.Close()
}
