package resil

import (
	"fmt"

	"tell/internal/det"
	"tell/internal/wire"
)

// windowCodecVersion guards the serialized layout.
const windowCodecVersion = 1

// Encode serializes the window's completed state (floors and cached
// responses; in-flight tokens are transient and skipped).
// Output is deterministic: clients and seqs are emitted in sorted order.
func (w *Window) Encode() []byte {
	w.mu.Lock()
	defer w.mu.Unlock()
	wr := wire.NewWriter(64)
	wr.Byte(windowCodecVersion)
	wr.Uvarint(uint64(w.Cap))
	// Skip clients with no durable state so Encode∘Decode is a fixpoint.
	ids := make([]string, 0, len(w.clients))
	for _, id := range det.Keys(w.clients) {
		c := w.clients[id]
		if c.floor == 0 && c.done.n == 0 {
			continue
		}
		ids = append(ids, id)
	}
	wr.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		c := w.clients[id]
		wr.String(id)
		wr.Uvarint(c.floor)
		wr.Uvarint(uint64(c.done.n))
		for i := 0; i < c.done.n; i++ {
			e := c.done.at(i)
			wr.Uvarint(e.seq)
			wr.BytesN(e.resp)
		}
	}
	return wr.Bytes()
}

// DecodeWindow parses a buffer produced by Encode. Cached responses are
// cloned out of b, so the input buffer may be recycled afterwards.
func DecodeWindow(b []byte) (*Window, error) {
	r := wire.NewReader(b)
	if v := r.Byte(); v != windowCodecVersion {
		return nil, fmt.Errorf("resil: unknown window codec version %d", v)
	}
	w := NewWindow(int(r.Uvarint()))
	nClients := r.Count(3)
	for i := 0; i < nClients; i++ {
		id := r.String()
		floor := r.Uvarint()
		nDone := r.Count(2)
		if r.Err() != nil {
			return nil, r.Err()
		}
		c := w.client(id)
		c.floor = floor
		for j := 0; j < nDone; j++ {
			seq := r.Uvarint()
			resp := r.BytesN()
			if r.Err() != nil {
				return nil, r.Err()
			}
			c.done.put(seq, append([]byte(nil), resp...))
		}
	}
	return w, r.Close()
}
