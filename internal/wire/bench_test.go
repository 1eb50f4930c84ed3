package wire_test

import (
	"fmt"
	"testing"

	"tell/internal/wire"
)

// BenchmarkWireStoreRequestEncode measures request serialization.
func BenchmarkWireStoreRequestEncode(b *testing.B) {
	req := &wire.StoreRequest{Epoch: 3}
	for i := 0; i < 16; i++ {
		req.Ops = append(req.Ops, wire.Op{
			Code: wire.OpCondPut,
			Key:  []byte(fmt.Sprintf("d/%08d", i)),
			Val:  make([]byte, 128),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = req.Encode()
	}
}

// BenchmarkWireStoreRequestDecode measures request parsing.
func BenchmarkWireStoreRequestDecode(b *testing.B) {
	req := &wire.StoreRequest{Epoch: 3}
	for i := 0; i < 16; i++ {
		req.Ops = append(req.Ops, wire.Op{Code: wire.OpGet, Key: []byte(fmt.Sprintf("k%08d", i))})
	}
	raw := req.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.DecodeStoreRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}
