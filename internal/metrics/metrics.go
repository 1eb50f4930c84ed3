// Package metrics provides the throughput and latency instrumentation the
// evaluation reports: means, standard deviations and high percentiles
// (Tables 4 and 5 report mean ± σ, TP99 and TP999).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Histogram records durations in logarithmically spaced buckets, giving
// accurate percentiles across six orders of magnitude without storing
// samples. It is not safe for concurrent use; under the simulator all
// recording is single-threaded, and real-environment callers must own one
// histogram per goroutine (and Merge them).
type Histogram struct {
	count  uint64
	sum    float64
	sumSq  float64
	min    time.Duration
	max    time.Duration
	bucket [nBuckets]uint64
}

// Buckets: 128 per factor-of-10, spanning 1µs .. 100s.
const (
	bucketBase    = float64(time.Microsecond)
	bucketsPerDec = 128
	nDecades      = 8
	nBuckets      = bucketsPerDec*nDecades + 2
)

func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	r := float64(d) / bucketBase
	if r < 1 {
		return 0
	}
	i := 1 + int(math.Log10(r)*bucketsPerDec)
	if i >= nBuckets {
		i = nBuckets - 1
	}
	return i
}

// bucketValue returns the representative duration of bucket i (its upper
// boundary).
func bucketValue(i int) time.Duration {
	if i <= 0 {
		return time.Microsecond
	}
	return time.Duration(bucketBase * math.Pow(10, float64(i)/bucketsPerDec))
}

// Record adds one observation.
func (h *Histogram) Record(d time.Duration) {
	if h.count == 0 {
		// First observation defines both extremes (the zero-valued max of an
		// empty histogram is "nothing seen", not an observation of zero).
		h.min, h.max = d, d
	} else {
		if d < h.min {
			h.min = d
		}
		if d > h.max {
			h.max = d
		}
	}
	h.count++
	f := float64(d)
	h.sum += f
	h.sumSq += f * f
	h.bucket[bucketIndex(d)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / float64(h.count))
}

// Stddev returns the population standard deviation.
func (h *Histogram) Stddev() time.Duration {
	if h.count == 0 {
		return 0
	}
	n := float64(h.count)
	v := h.sumSq/n - (h.sum/n)*(h.sum/n)
	if v < 0 {
		v = 0
	}
	return time.Duration(math.Sqrt(v))
}

// Min returns the smallest observation.
func (h *Histogram) Min() time.Duration { return h.min }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Percentile returns the value at or below which p (0..100) percent of
// observations fall, to bucket resolution.
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i := 0; i < nBuckets; i++ {
		seen += h.bucket[i]
		if seen >= target {
			if i == nBuckets-1 {
				return h.max
			}
			return bucketValue(i)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	if h.count == 0 {
		// An empty receiver adopts the other side's extremes wholesale: its
		// zero-valued min/max are "no observations", not observations of
		// zero, so comparing against them would keep a bogus 0 whenever the
		// other side's range does not straddle zero.
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.count += other.count
	h.sum += other.sum
	h.sumSq += other.sumSq
	for i := range h.bucket {
		h.bucket[i] += other.bucket[i]
	}
}

// String formats the histogram like the paper's latency tables.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%.2fms σ=%.2fms p99=%.2fms p99.9=%.2fms",
		h.count,
		float64(h.Mean())/float64(time.Millisecond),
		float64(h.Stddev())/float64(time.Millisecond),
		float64(h.Percentile(99))/float64(time.Millisecond),
		float64(h.Percentile(99.9))/float64(time.Millisecond))
}

// PerMinute converts a count observed over elapsed into a per-minute rate —
// the TpmC convention.
func PerMinute(count uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Minutes()
}

// PerSecond converts a count observed over elapsed into a per-second rate.
func PerSecond(count uint64, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(count) / elapsed.Seconds()
}

// Summary aggregates named histograms, used for per-transaction-type
// latency reporting.
type Summary struct {
	hists map[string]*Histogram
}

// NewSummary returns an empty summary.
func NewSummary() *Summary { return &Summary{hists: make(map[string]*Histogram)} }

// Record adds an observation under name.
func (s *Summary) Record(name string, d time.Duration) {
	h, ok := s.hists[name]
	if !ok {
		h = &Histogram{}
		s.hists[name] = h
	}
	h.Record(d)
}

// Names returns the recorded names in sorted order.
func (s *Summary) Names() []string {
	names := make([]string, 0, len(s.hists))
	for n := range s.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Total returns a histogram merging all names. The merge walks names in
// sorted order: float accumulation is not associative, so map order would
// make the totals differ bit-for-bit between identical runs.
func (s *Summary) Total() *Histogram {
	t := &Histogram{}
	for _, n := range s.Names() {
		t.Merge(s.hists[n])
	}
	return t
}
