package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 100; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Mean(); got < 50*time.Millisecond || got > 51*time.Millisecond {
		t.Fatalf("mean = %v, want ~50.5ms", got)
	}
	if h.Min() != time.Millisecond || h.Max() != 100*time.Millisecond {
		t.Fatalf("min/max = %v/%v", h.Min(), h.Max())
	}
	// σ of 1..100 is ~28.9ms.
	if got := h.Stddev(); got < 28*time.Millisecond || got > 30*time.Millisecond {
		t.Fatalf("stddev = %v, want ~28.9ms", got)
	}
}

func TestHistogramPercentilesWithinBucketResolution(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Millisecond)
	}
	check := func(p float64, want time.Duration) {
		got := h.Percentile(p)
		lo := time.Duration(float64(want) * 0.95)
		hi := time.Duration(float64(want) * 1.05)
		if got < lo || got > hi {
			t.Fatalf("p%v = %v, want ~%v", p, got, want)
		}
	}
	check(50, 500*time.Millisecond)
	check(99, 990*time.Millisecond)
	check(99.9, 999*time.Millisecond)
}

func TestHistogramMaxPercentileIsMax(t *testing.T) {
	h := &Histogram{}
	h.Record(time.Millisecond)
	h.Record(time.Second)
	if got := h.Percentile(100); got > time.Second*11/10 || got < time.Second*9/10 {
		t.Fatalf("p100 = %v, want ~1s", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 50; i++ {
		a.Record(10 * time.Millisecond)
		b.Record(30 * time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 100 {
		t.Fatalf("count = %d", a.Count())
	}
	if got := a.Mean(); got < 19*time.Millisecond || got > 21*time.Millisecond {
		t.Fatalf("mean = %v, want 20ms", got)
	}
	if a.Min() != 10*time.Millisecond || a.Max() != 30*time.Millisecond {
		t.Fatalf("min/max = %v/%v", a.Min(), a.Max())
	}
}

// TestHistogramMergeIntoEmpty: merging into an empty receiver must adopt the
// other side's min and max verbatim. The regression: an empty histogram's
// zero-valued extremes were treated as observations, so a merged-in side
// whose range did not straddle zero kept min=0 (when all values were
// positive the old min check happened to adopt, but max stayed 0 whenever
// every merged value was negative or zero).
func TestHistogramMergeIntoEmpty(t *testing.T) {
	// All-positive values: min and max must both come from the other side.
	empty, pos := &Histogram{}, &Histogram{}
	pos.Record(5 * time.Millisecond)
	pos.Record(9 * time.Millisecond)
	empty.Merge(pos)
	if empty.Min() != 5*time.Millisecond || empty.Max() != 9*time.Millisecond {
		t.Fatalf("positive merge: min/max = %v/%v, want 5ms/9ms", empty.Min(), empty.Max())
	}

	// Non-positive values (a clock-skewed duration, or a gauge-style use):
	// the empty receiver's max must not stay at zero.
	empty2, neg := &Histogram{}, &Histogram{}
	neg.Record(-3 * time.Millisecond)
	neg.Record(-1 * time.Millisecond)
	empty2.Merge(neg)
	if empty2.Min() != -3*time.Millisecond || empty2.Max() != -time.Millisecond {
		t.Fatalf("negative merge: min/max = %v/%v, want -3ms/-1ms", empty2.Min(), empty2.Max())
	}

	// Merging an empty histogram into a populated one stays a no-op.
	keep := &Histogram{}
	keep.Record(2 * time.Millisecond)
	keep.Merge(&Histogram{})
	if keep.Min() != 2*time.Millisecond || keep.Max() != 2*time.Millisecond || keep.Count() != 1 {
		t.Fatalf("no-op merge changed state: min=%v max=%v n=%d", keep.Min(), keep.Max(), keep.Count())
	}
}

func TestHistogramZeroAndTinyValues(t *testing.T) {
	h := &Histogram{}
	h.Record(0)
	h.Record(time.Nanosecond)
	h.Record(time.Microsecond)
	if h.Count() != 3 {
		t.Fatal("records lost")
	}
	if h.Percentile(50) > time.Microsecond {
		t.Fatalf("p50 = %v", h.Percentile(50))
	}
}

// TestHistogramPercentileProperty: for uniform random data the histogram
// percentile must be within bucket resolution (~1.8%) of the exact value.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := &Histogram{}
		samples := make([]float64, 0, 500)
		for i := 0; i < 500; i++ {
			d := time.Duration(rng.Intn(1e9)) + time.Microsecond
			h.Record(d)
			samples = append(samples, float64(d))
		}
		for _, p := range []float64{50, 90, 99} {
			got := float64(h.Percentile(p))
			// Exact percentile by sorting.
			sorted := append([]float64(nil), samples...)
			for i := 1; i < len(sorted); i++ {
				for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
					sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
				}
			}
			idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
			want := sorted[idx]
			if got < want*0.95 || got > want*1.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestHistogramBucketBoundaryAccuracy pins the bucket-resolution bound. At
// 128 buckets per decade one bucket spans a factor of 10^(1/128) ≈ 1.0181,
// and Percentile reports the upper boundary of the bucket holding the exact
// quantile sample, so the reported value must lie in
// [exact, exact·10^(1/128)] — a relative error of at most ~1.82%. The
// samples are log-spaced so every decade (and thus every bucket width) is
// exercised evenly.
func TestHistogramBucketBoundaryAccuracy(t *testing.T) {
	h := &Histogram{}
	const n = 4096
	samples := make([]float64, n) // ascending by construction
	for i := 0; i < n; i++ {
		// Four decades: 10µs .. 100ms.
		d := time.Duration(1e4 * math.Pow(10, 4*float64(i)/n))
		h.Record(d)
		samples[i] = float64(d)
	}
	oneBucket := math.Pow(10, 1.0/bucketsPerDec)
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99, 99.9} {
		got := float64(h.Percentile(p))
		exact := samples[int(math.Ceil(p/100*n))-1]
		// Tiny slack for float rounding at exact bucket boundaries.
		if got < exact*0.9999 || got > exact*oneBucket*1.0001 {
			t.Errorf("p%v = %v vs exact %v: rel err %+.3f%%, one-bucket bound %.3f%%",
				p, time.Duration(got), time.Duration(exact),
				100*(got/exact-1), 100*(oneBucket-1))
		}
	}
}

func TestRates(t *testing.T) {
	if got := PerMinute(600, time.Minute); got != 600 {
		t.Fatalf("PerMinute = %v", got)
	}
	if got := PerMinute(100, 30*time.Second); got != 200 {
		t.Fatalf("PerMinute = %v", got)
	}
	if got := PerSecond(100, 2*time.Second); got != 50 {
		t.Fatalf("PerSecond = %v", got)
	}
	if PerMinute(5, 0) != 0 || PerSecond(5, 0) != 0 {
		t.Fatal("zero elapsed must give zero rate")
	}
}

func TestSummary(t *testing.T) {
	s := NewSummary()
	s.Record("neworder", 10*time.Millisecond)
	s.Record("neworder", 20*time.Millisecond)
	s.Record("payment", 5*time.Millisecond)
	if got := s.Get("neworder").Count(); got != 2 {
		t.Fatalf("neworder count = %d", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "neworder" || names[1] != "payment" {
		t.Fatalf("names = %v", names)
	}
	if got := s.Total().Count(); got != 3 {
		t.Fatalf("total = %d", got)
	}
	if s.Get("missing") != nil {
		t.Fatal("missing name should be nil")
	}
}
