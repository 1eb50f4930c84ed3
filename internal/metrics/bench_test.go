package metrics_test

import (
	"math/rand"
	"testing"
	"time"

	"tell/internal/metrics"
)

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
