// Zero-allocation guards for the pooled encode/decode hot path. The race
// detector instruments allocations, so these run only in regular builds
// (make bench-smoke exercises them in CI).

//go:build !race

package wire

import (
	"testing"
)

// benchRequest is a representative point-op batch: the shape the store
// client sends on the TPC-C hot path.
func benchRequest() *StoreRequest {
	key := []byte("warehouse/0001/district/07")
	val := make([]byte, 96)
	return &StoreRequest{
		Epoch: 7,
		Ops: []Op{
			{Code: OpGet, Key: key},
			{Code: OpCondPut, Key: key, Val: val, Stamp: 42},
			{Code: OpCounterAdd, Key: key, Delta: 3},
			{Code: OpDelete, Key: key, Stamp: 9},
		},
	}
}

func benchResponse() *StoreResponse {
	val := make([]byte, 96)
	return &StoreResponse{
		Status: StatusOK,
		Epoch:  7,
		Results: []Result{
			{Status: StatusOK, Val: val, Stamp: 42},
			{Status: StatusConflict, Stamp: 43},
			{Status: StatusOK, Count: 17},
			{Status: StatusOK},
		},
	}
}

// TestEncodePutBufZeroAlloc pins the pooled encode cycle at zero
// steady-state allocations: a request encoded into a pooled buffer that is
// recycled with PutBuf must not touch the heap once the pool is warm.
func TestEncodePutBufZeroAlloc(t *testing.T) {
	req := benchRequest()
	// Warm the pools (first cycle allocates the writer, wrapper and buffer).
	for i := 0; i < 8; i++ {
		PutBuf(req.Encode())
	}
	if n := testing.AllocsPerRun(200, func() {
		PutBuf(req.Encode())
	}); n != 0 {
		t.Fatalf("StoreRequest Encode+PutBuf allocates %.1f times per op, want 0", n)
	}

	resp := benchResponse()
	for i := 0; i < 8; i++ {
		PutBuf(resp.Encode())
	}
	if n := testing.AllocsPerRun(200, func() {
		PutBuf(resp.Encode())
	}); n != 0 {
		t.Fatalf("StoreResponse Encode+PutBuf allocates %.1f times per op, want 0", n)
	}
}

// TestEncodeSizedOneAlloc pins the cold encode — nobody recycles buffers,
// which is every encode under the simulated network — at one allocation: a
// response larger than any default buffer takes one buffer of its encoded
// size instead of growing a small one by doubling. With a recycling
// transport the same response encodes without touching the heap.
func TestEncodeSizedOneAlloc(t *testing.T) {
	resp := &StoreResponse{Status: StatusOK, Epoch: 7, Results: make([]Result, 16)}
	for i := range resp.Results {
		resp.Results[i] = Result{Status: StatusOK, Val: make([]byte, 200), Stamp: uint64(i + 1)}
	}
	if enc := resp.Encode(); cap(enc) != len(enc) {
		t.Fatalf("cold Encode took a %d-byte buffer for %d bytes", cap(enc), len(enc))
	}
	if n := testing.AllocsPerRun(200, func() { resp.Encode() }); n != 1 {
		t.Fatalf("cold StoreResponse Encode allocates %.1f times per op, want 1 (the buffer)", n)
	}
	for i := 0; i < 8; i++ {
		PutBuf(resp.Encode())
	}
	if n := testing.AllocsPerRun(200, func() { PutBuf(resp.Encode()) }); n != 0 {
		t.Fatalf("warm StoreResponse Encode+PutBuf allocates %.1f times per op, want 0", n)
	}
}

// TestDecodeFromZeroAlloc pins in-place decoding at zero steady-state
// allocations: decoding into a long-lived message whose slices have
// capacity must not touch the heap (pair-free responses — the point-op hot
// path).
func TestDecodeFromZeroAlloc(t *testing.T) {
	rawReq := benchRequest().Encode()
	var req StoreRequest
	if err := req.DecodeFrom(rawReq); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := req.DecodeFrom(rawReq); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("StoreRequest DecodeFrom allocates %.1f times per op, want 0", n)
	}

	rawResp := benchResponse().Encode()
	var resp StoreResponse
	if err := resp.DecodeFrom(rawResp); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := resp.DecodeFrom(rawResp); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("StoreResponse DecodeFrom allocates %.1f times per op, want 0", n)
	}
}

// TestPutBufRejectsOutOfBand verifies the pool's capacity band: tiny shared
// literals (ack responses) and oversized buffers must not enter the pool.
func TestPutBufRejectsOutOfBand(t *testing.T) {
	shared := []byte{byte(KindReplicateResp), byte(StatusOK)}
	PutBuf(shared) // must be a no-op: cap < minPooledCap
	b := getBuf(defaultBufCap)
	if cap(b) >= minPooledCap && &b[:1][0] == &shared[:1][0] {
		t.Fatal("pool returned the shared literal buffer")
	}
	PutBuf(make([]byte, maxPooledCap+1)) // must also be a no-op
}

func BenchmarkStoreRequestEncodePooled(b *testing.B) {
	req := benchRequest()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PutBuf(req.Encode())
	}
}

func BenchmarkStoreResponseDecodeFrom(b *testing.B) {
	raw := benchResponse().Encode()
	var resp StoreResponse
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := resp.DecodeFrom(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRequestDecodeFrom(b *testing.B) {
	raw := benchRequest().Encode()
	var req StoreRequest
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := req.DecodeFrom(raw); err != nil {
			b.Fatal(err)
		}
	}
}
