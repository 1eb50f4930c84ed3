package resil_test

import (
	"bytes"
	"testing"

	"tell/internal/resil"
)

// FuzzWindowCodec feeds arbitrary bytes to the dedup-window decoder: it
// must never panic, and anything it accepts must re-encode to a fixpoint
// (Encode∘Decode∘Encode = Encode) so a checkpointed window survives
// arbitrarily many save/load cycles unchanged.
func FuzzWindowCodec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 8, 0})
	w := resil.NewWindow(4)
	for i := 1; i <= 6; i++ {
		w.Begin("pn0", uint64(i))
		w.Commit("pn0", uint64(i), []byte{0xab, byte(i)})
	}
	w.Begin("pn1", 3)
	w.Commit("pn1", 3, nil)
	f.Add(w.Encode())
	f.Add(fullWindow(1024).Encode())

	f.Fuzz(func(t *testing.T, b []byte) {
		decoded, err := resil.DecodeWindow(b)
		if err != nil {
			return
		}
		enc := decoded.Encode()
		again, err := resil.DecodeWindow(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted window failed: %v", err)
		}
		if !bytes.Equal(again.Encode(), enc) {
			t.Fatal("Encode∘Decode not a fixpoint")
		}
	})
}
