package wire

import (
	"bytes"
	"testing"
)

// FuzzRoundTrip feeds arbitrary bytes to every message decoder. Corrupt
// input must fail cleanly (no panic); input that decodes must reach an
// encode fixpoint: re-encoding the decoded message, decoding that, and
// encoding again must reproduce the same bytes. The fixpoint is checked on
// the second generation because the original bytes may contain
// non-canonical varints the encoder is free to normalize.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add((&StoreRequest{Epoch: 7, Ops: []Op{
		{Code: OpGet, Key: []byte("k")},
		{Code: OpPut, Key: []byte("k"), Val: []byte("v")},
		{Code: OpCondPut, Key: []byte("k"), Val: []byte("v"), Stamp: 9},
		{Code: OpDelete, Key: []byte("k"), Stamp: 3},
		{Code: OpCounterAdd, Key: []byte("c"), Delta: -4},
		{Code: OpScan, Key: []byte("a"), EndKey: []byte("z"), Limit: 10, Reverse: true},
		{Code: OpScanFiltered, Key: []byte("a"), EndKey: []byte("z"), Limit: 5, Val: []byte("f")},
	}}).Encode())
	f.Add((&StoreResponse{Status: StatusOK, Epoch: 3, Results: []Result{
		{Status: StatusOK, Val: []byte("v"), Stamp: 8, Count: -2,
			Pairs: []Pair{{Key: []byte("k"), Val: []byte("v"), Stamp: 1}}},
		{Status: StatusConflict, Stamp: 12},
	}}).Encode())
	f.Add((&ReplicateRequest{PartitionID: 2, Mutations: []Mutation{
		{Key: []byte("k"), Val: []byte("v"), Stamp: 5},
		{Key: []byte("c"), Counter: true, CtrVal: -1, Stamp: 6},
		{Key: []byte("d"), Deleted: true, Stamp: 7},
	}}).Encode())
	f.Add((&ReplicateResponse{Status: StatusOK}).Encode())
	f.Add((&RecoverRequest{Dead: "sn1",
		Objects: []string{"sn1/wal/seg-0000000003", "sn1/ckpt/g0000000001/chunk-000000"},
		Assign:  []RecoverAssign{{Pid: 4, Addr: "sn0"}, {Pid: 9, Addr: "sn2"}},
	}).Encode())
	f.Add((&RecoverResponse{Status: StatusOK, Records: 120, Bytes: 4096}).Encode())
	f.Add((&StatsExt{Node: "sn0", NowNs: 12345, WindowNs: 1000,
		Series: []SeriesStat{
			{Node: "sn0", Metric: "store", Hist: true, Total: 9, Count: 9, MeanNs: 1200, P50Ns: 1000, P99Ns: 5000, P999Ns: 9000},
			{Node: "sn0", Metric: "store/gets", Total: 42},
		},
		Heat: []HeatStat{{Node: "sn0", Range: 3, Reads: 7, Writes: 2}},
	}).Encode())
	// A few corrupt variants: truncated, kind-swapped, bit-flipped.
	f.Add([]byte{byte(KindStoreReq)})
	f.Add([]byte{byte(KindStoreResp), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(KindReplicate), 0x01, 0x80})

	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeStoreRequest(data); err == nil {
			e1 := m.Encode()
			if len(e1) != m.encodedLen() {
				t.Fatalf("StoreRequest encodedLen = %d, encoded %d bytes", m.encodedLen(), len(e1))
			}
			m2, err := DecodeStoreRequest(e1)
			if err != nil {
				t.Fatalf("re-decode StoreRequest: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("StoreRequest fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeStoreResponse(data); err == nil {
			e1 := m.Encode()
			if len(e1) != m.encodedLen() {
				t.Fatalf("StoreResponse encodedLen = %d, encoded %d bytes", m.encodedLen(), len(e1))
			}
			m2, err := DecodeStoreResponse(e1)
			if err != nil {
				t.Fatalf("re-decode StoreResponse: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("StoreResponse fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeReplicateRequest(data); err == nil {
			e1 := m.Encode()
			m2, err := DecodeReplicateRequest(e1)
			if err != nil {
				t.Fatalf("re-decode ReplicateRequest: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("ReplicateRequest fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeReplicateResponse(data); err == nil {
			e1 := m.Encode()
			m2, err := DecodeReplicateResponse(e1)
			if err != nil {
				t.Fatalf("re-decode ReplicateResponse: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("ReplicateResponse fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeRecoverRequest(data); err == nil {
			e1 := m.Encode()
			m2, err := DecodeRecoverRequest(e1)
			if err != nil {
				t.Fatalf("re-decode RecoverRequest: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("RecoverRequest fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeRecoverResponse(data); err == nil {
			e1 := m.Encode()
			m2, err := DecodeRecoverResponse(e1)
			if err != nil {
				t.Fatalf("re-decode RecoverResponse: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("RecoverResponse fixpoint: % x != % x", e1, e2)
			}
		}
		if m, err := DecodeStatsExt(data); err == nil {
			e1 := m.Encode()
			m2, err := DecodeStatsExt(e1)
			if err != nil {
				t.Fatalf("re-decode StatsExt: %v", err)
			}
			if e2 := m2.Encode(); !bytes.Equal(e1, e2) {
				t.Fatalf("StatsExt fixpoint: % x != % x", e1, e2)
			}
		}
	})
}
