package tell_test

// One benchmark per table and figure of the paper's evaluation (§6). Each
// bench runs the corresponding experiment from internal/exp at a reduced
// scale (so `go test -bench=.` finishes on one machine) and logs the
// regenerated rows/series; cmd/tellbench runs the same experiments at full
// scale. Microbenchmarks for the hot data structures follow.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"tell/internal/exp"
	"tell/internal/metrics"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/wire"
)

// benchOpt keeps experiment benches tractable; tellbench uses full scale.
func benchOpt() exp.Options {
	return exp.Options{Warehouses: 6, Scale: 0.02, Warmup: 30, Measure: 400, Seed: 42}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := exp.Registry()[id]
	if fn == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		start := time.Now()
		tbl, err := fn(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s(regenerated in %v; run `go run ./cmd/tellbench %s` for full scale)",
				tbl, time.Since(start).Round(time.Millisecond), id)
		}
	}
}

// BenchmarkFig5ScaleOutWrite regenerates Figure 5 (PN scale-out,
// write-intensive, RF1/2/3).
func BenchmarkFig5ScaleOutWrite(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6ScaleOutRead regenerates Figure 6 (PN scale-out,
// read-intensive).
func BenchmarkFig6ScaleOutRead(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7ScaleOutStorage regenerates Figure 7 (storage scale-out).
func BenchmarkFig7ScaleOutStorage(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable3CommitManagers regenerates Table 3 (commit-manager count).
func BenchmarkTable3CommitManagers(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig8EngineComparison regenerates Figure 8 (Tell vs VoltDB-style
// vs MySQL-Cluster-style vs FoundationDB-style, standard mix, RF3).
func BenchmarkFig8EngineComparison(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig9Shardable regenerates Figure 9 (shardable TPC-C).
func BenchmarkFig9Shardable(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable4ResponseTimes regenerates Table 4 (response times).
func BenchmarkTable4ResponseTimes(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5NetworkLatency regenerates Table 5 (InfiniBand vs 10GbE
// latency percentiles).
func BenchmarkTable5NetworkLatency(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkFig10Network regenerates Figure 10 (network scale-out).
func BenchmarkFig10Network(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Buffering regenerates Figure 11 (buffering strategies).
func BenchmarkFig11Buffering(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkSec631Contention regenerates the §6.3.1 contention observation.
func BenchmarkSec631Contention(b *testing.B) { benchExperiment(b, "sec631") }

// BenchmarkSec633SyncInterval regenerates the §6.3.3 sync-interval
// observation.
func BenchmarkSec633SyncInterval(b *testing.B) { benchExperiment(b, "sec633") }

// BenchmarkAblationIndexCache measures B+tree inner-node caching (§5.3.1).
func BenchmarkAblationIndexCache(b *testing.B) { benchExperiment(b, "ablation-indexcache") }

// BenchmarkAblationTidRange measures tid-range sizes (§4.2).
func BenchmarkAblationTidRange(b *testing.B) { benchExperiment(b, "ablation-tidrange") }

// BenchmarkAblationGranularity measures record- vs page-granularity storage
// (§2.2/§5.1).
func BenchmarkAblationGranularity(b *testing.B) { benchExperiment(b, "ablation-granularity") }

// --- microbenchmarks for the hot data structures ---

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

// BenchmarkHistogramRecord measures latency recording.
func BenchmarkHistogramRecord(b *testing.B) {
	h := &metrics.Histogram{}
	rng := rand.New(rand.NewSource(1))
	durations := make([]time.Duration, 1024)
	for i := range durations {
		durations[i] = time.Duration(rng.Intn(1e8))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Record(durations[i%len(durations)])
	}
}

// BenchmarkExtPushdown measures the §5.2 push-down extension: analytics
// with server-side selection/projection vs ship-to-query.
func BenchmarkExtPushdown(b *testing.B) { benchExperiment(b, "ext-pushdown") }
