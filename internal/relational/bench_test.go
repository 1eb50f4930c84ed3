package relational_test

import (
	"testing"

	"tell/internal/relational"
)

// BenchmarkIndexKeyEncode measures the order-preserving composite key
// encoder (one TPC-C customer PK per op).
func BenchmarkIndexKeyEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = relational.EncodeKey(
			relational.I64(int64(i%100)),
			relational.I64(int64(i%10)),
			relational.I64(int64(i%3000)),
		)
	}
}

// BenchmarkRowCodec measures row encode+decode for a TPC-C-like schema.
func BenchmarkRowCodec(b *testing.B) {
	schema := &relational.TableSchema{
		Name: "t",
		Cols: []relational.Column{
			{Name: "a", Type: relational.TInt64},
			{Name: "b", Type: relational.TString},
			{Name: "c", Type: relational.TFloat64},
			{Name: "d", Type: relational.TInt64},
		},
		PKCols: []int{0},
	}
	row := relational.Row{
		relational.I64(42), relational.Str("customer name here"),
		relational.F64(3.14), relational.I64(7),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := relational.EncodeRow(schema, row)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := relational.DecodeRow(schema, raw); err != nil {
			b.Fatal(err)
		}
	}
}
