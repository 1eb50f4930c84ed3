package mvcc_test

import (
	"testing"

	"tell/internal/mvcc"
)

// BenchmarkRecordVisible measures MVCC visibility resolution on a 4-version
// record.
func BenchmarkRecordVisible(b *testing.B) {
	rec := mvcc.NewRecord(10, make([]byte, 128))
	for _, tid := range []uint64{20, 30, 40} {
		rec = rec.WithVersion(tid, false, make([]byte, 128))
	}
	snap := mvcc.NewSnapshot(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := rec.Visible(snap); !ok {
			b.Fatal("not visible")
		}
	}
}

// BenchmarkRecordEncodeDecode measures the multi-version record codec.
func BenchmarkRecordEncodeDecode(b *testing.B) {
	rec := mvcc.NewRecord(10, make([]byte, 128))
	rec = rec.WithVersion(20, false, make([]byte, 128))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := rec.Encode()
		if _, err := mvcc.Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotContains measures the visibility test on a descriptor
// with scattered committed bits.
func BenchmarkSnapshotContains(b *testing.B) {
	s := mvcc.NewSnapshot(1000)
	for t := uint64(1001); t < 1512; t += 3 {
		s.Add(t)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Contains(1000 + uint64(i%600))
	}
}
