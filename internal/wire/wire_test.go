package wire

import (
	"bytes"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.Byte(7)
	w.Uvarint(math.MaxUint64)
	w.Varint(-12345)
	w.U64(0xdeadbeefcafe)
	w.U32(42)
	w.Bool(true)
	w.Bool(false)
	w.BytesN([]byte("hello"))
	w.BytesN(nil)
	w.String("world")

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Fatalf("Uvarint = %d", got)
	}
	if got := r.Varint(); got != -12345 {
		t.Fatalf("Varint = %d", got)
	}
	if got := r.U64(); got != 0xdeadbeefcafe {
		t.Fatalf("U64 = %x", got)
	}
	if got := r.U32(); got != 42 {
		t.Fatalf("U32 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if got := r.BytesN(); string(got) != "hello" {
		t.Fatalf("BytesN = %q", got)
	}
	if got := r.BytesN(); len(got) != 0 {
		t.Fatalf("empty BytesN = %q", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("String = %q", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderTruncation(t *testing.T) {
	w := NewWriter(0)
	w.BytesN([]byte("hello"))
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.BytesN()
		if r.Err() == nil {
			t.Fatalf("cut=%d: expected error", cut)
		}
	}
}

func TestReaderErrorsAreSticky(t *testing.T) {
	r := NewReader(nil)
	r.U64()
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Later reads keep failing without panicking.
	r.Uvarint()
	r.BytesN()
	if r.Err() == nil {
		t.Fatal("error should persist")
	}
}

func TestReaderTrailingBytes(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	r.Byte()
	if err := r.Close(); err == nil {
		t.Fatal("expected trailing-bytes error")
	}
}

func opsEqual(a, b Op) bool {
	return a.Code == b.Code &&
		bytes.Equal(a.Key, b.Key) &&
		bytes.Equal(a.Val, b.Val) &&
		a.Stamp == b.Stamp &&
		a.Delta == b.Delta &&
		bytes.Equal(a.EndKey, b.EndKey) &&
		a.Limit == b.Limit &&
		a.Reverse == b.Reverse
}

func TestStoreRequestRoundTrip(t *testing.T) {
	req := &StoreRequest{
		Epoch: 9,
		Ops: []Op{
			{Code: OpGet, Key: []byte("k1")},
			{Code: OpPut, Key: []byte("k2"), Val: []byte("v2")},
			{Code: OpCondPut, Key: []byte("k3"), Val: []byte("v3"), Stamp: 77},
			{Code: OpDelete, Key: []byte("k4"), Stamp: 3},
			{Code: OpCounterAdd, Key: []byte("c"), Delta: -5},
			{Code: OpScan, Key: []byte("a"), EndKey: []byte("z"), Limit: 100, Reverse: true},
		},
	}
	got, err := DecodeStoreRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != 9 || len(got.Ops) != len(req.Ops) {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range req.Ops {
		if !opsEqual(got.Ops[i], req.Ops[i]) {
			t.Fatalf("op %d mismatch:\n got %+v\nwant %+v", i, got.Ops[i], req.Ops[i])
		}
	}
}

func TestStoreResponseRoundTrip(t *testing.T) {
	resp := &StoreResponse{
		Status: StatusOK,
		Epoch:  4,
		Results: []Result{
			{Status: StatusOK, Val: []byte("v"), Stamp: 12},
			{Status: StatusConflict, Stamp: 13},
			{Status: StatusNotFound},
			{Status: StatusOK, Count: -99},
			{Status: StatusOK, Pairs: []Pair{
				{Key: []byte("a"), Val: []byte("1"), Stamp: 1},
				{Key: []byte("b"), Val: []byte("2"), Stamp: 2},
			}},
		},
	}
	got, err := DecodeStoreResponse(resp.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusOK || got.Epoch != 4 || len(got.Results) != 5 {
		t.Fatalf("header mismatch: %+v", got)
	}
	if string(got.Results[0].Val) != "v" || got.Results[0].Stamp != 12 {
		t.Fatalf("result 0 mismatch: %+v", got.Results[0])
	}
	if got.Results[1].Status != StatusConflict {
		t.Fatalf("result 1 mismatch: %+v", got.Results[1])
	}
	if got.Results[3].Count != -99 {
		t.Fatalf("result 3 mismatch: %+v", got.Results[3])
	}
	if len(got.Results[4].Pairs) != 2 || string(got.Results[4].Pairs[1].Key) != "b" {
		t.Fatalf("result 4 mismatch: %+v", got.Results[4])
	}
}

func TestReplicateRoundTrip(t *testing.T) {
	req := &ReplicateRequest{
		PartitionID: 3,
		Mutations: []Mutation{
			{Key: []byte("k"), Val: []byte("v"), Stamp: 5},
			{Key: []byte("d"), Deleted: true, Stamp: 6},
			{Key: []byte("c"), Counter: true, CtrVal: 41, Stamp: 7},
		},
	}
	got, err := DecodeReplicateRequest(req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.PartitionID != 3 || len(got.Mutations) != 3 {
		t.Fatalf("mismatch: %+v", got)
	}
	if !got.Mutations[1].Deleted || got.Mutations[2].CtrVal != 41 {
		t.Fatalf("mutation mismatch: %+v", got.Mutations)
	}

	resp := &ReplicateResponse{Status: StatusOK}
	gr, err := DecodeReplicateResponse(resp.Encode())
	if err != nil || gr.Status != StatusOK {
		t.Fatalf("resp mismatch: %+v err=%v", gr, err)
	}
}

func TestKindMismatchRejected(t *testing.T) {
	req := &StoreRequest{Ops: []Op{{Code: OpGet, Key: []byte("k")}}}
	if _, err := DecodeStoreResponse(req.Encode()); err == nil {
		t.Fatal("expected kind mismatch error")
	}
	if _, err := DecodeReplicateRequest(req.Encode()); err == nil {
		t.Fatal("expected kind mismatch error")
	}
}

// TestVarintPropertyRoundTrip checks uvarint/varint/bytes encodings for all
// generated values.
func TestVarintPropertyRoundTrip(t *testing.T) {
	f := func(u uint64, v int64, b []byte, s string) bool {
		w := NewWriter(0)
		w.Uvarint(u)
		w.Varint(v)
		w.BytesN(b)
		w.String(s)
		if len(w.Bytes()) != UvarintLen(u)+varintLen(v)+bytesNLen(len(b))+bytesNLen(len(s)) {
			return false
		}
		r := NewReader(w.Bytes())
		gu := r.Uvarint()
		gv := r.Varint()
		gb := r.BytesN()
		gs := r.String()
		return r.Close() == nil && gu == u && gv == v && bytes.Equal(gb, b) && gs == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestStoreRequestPropertyRoundTrip fuzzes op batches through the codec.
func TestStoreRequestPropertyRoundTrip(t *testing.T) {
	f := func(epoch uint64, keys [][]byte, vals [][]byte, stamps []uint64) bool {
		var ops []Op
		for i, k := range keys {
			op := Op{Code: OpCondPut, Key: k}
			if i < len(vals) {
				op.Val = vals[i]
			}
			if i < len(stamps) {
				op.Stamp = stamps[i]
			}
			ops = append(ops, op)
		}
		req := &StoreRequest{Epoch: epoch, Ops: ops}
		enc := req.Encode()
		got, err := DecodeStoreRequest(enc)
		if err != nil || len(enc) != req.encodedLen() || got.Epoch != epoch || len(got.Ops) != len(ops) {
			return false
		}
		for i := range ops {
			if !opsEqual(got.Ops[i], ops[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeGarbageNeverPanics feeds random bytes to the decoders.
func TestDecodeGarbageNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		DecodeStoreRequest(b)
		DecodeStoreResponse(b)
		DecodeReplicateRequest(b)
		DecodeReplicateResponse(b)
		DecodeStatsExt(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsExtRoundTrip(t *testing.T) {
	m := &StatsExt{
		Node:     "mgr",
		NowNs:    123456789,
		WindowNs: int64(100 * 1e6),
		Series: []SeriesStat{
			{Node: "txn", Metric: "lat/neworder", Hist: true, Total: 99,
				Count: 42, MeanNs: 1000, P50Ns: 900, P99Ns: 5000, P999Ns: 9000},
			{Node: "txn", Metric: "rate/committed", Total: 77},
		},
		Heat: []HeatStat{
			{Node: "sn1", Range: 3, Reads: 10, Writes: 5, Conflicts: 1,
				ReadBytes: 640, WriteBytes: 320, RecentOps: 15, RecentLatNs: 2500},
		},
		Breaches: []BreachStat{{Class: "neworder", Quantile: "p99", Count: 2}},
		Flight:   FlightStat{Retained: 3, Evicted: 1, Seen: 100000},
	}
	got, err := DecodeStatsExt(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestStatsExtMerge(t *testing.T) {
	a := &StatsExt{Node: "mgr", NowNs: 5, WindowNs: 7,
		Series:   []SeriesStat{{Node: "sn2", Metric: "lat/store"}},
		Heat:     []HeatStat{{Node: "sn2", Range: 1}},
		Breaches: []BreachStat{{Class: "neworder", Quantile: "p99", Count: 2}},
		Flight:   FlightStat{Retained: 1}}
	b := &StatsExt{Node: "sn1", NowNs: 9,
		Series: []SeriesStat{{Node: "sn1", Metric: "lat/store"}},
		Heat:   []HeatStat{{Node: "sn1", Range: 2}},
		Breaches: []BreachStat{
			{Class: "neworder", Quantile: "p99", Count: 3},
			{Class: "payment", Quantile: "p50", Count: 1},
		},
		Flight: FlightStat{Retained: 2, Evicted: 1, Seen: 10}}
	a.Merge(b)
	a.SortRows()
	if a.NowNs != 9 || a.WindowNs != 7 {
		t.Fatalf("merged header: %+v", a)
	}
	if len(a.Series) != 2 || a.Series[0].Node != "sn1" || a.Series[1].Node != "sn2" {
		t.Fatalf("merged series: %+v", a.Series)
	}
	if len(a.Heat) != 2 || a.Heat[0].Node != "sn1" || a.Heat[1].Node != "sn2" {
		t.Fatalf("merged heat: %+v", a.Heat)
	}
	if len(a.Breaches) != 2 || a.Breaches[0].Count != 5 || a.Breaches[1].Class != "payment" {
		t.Fatalf("merged breaches: %+v", a.Breaches)
	}
	if a.Flight.Retained != 3 || a.Flight.Evicted != 1 || a.Flight.Seen != 10 {
		t.Fatalf("merged flight: %+v", a.Flight)
	}
}
