package obs

import (
	"sort"
	"time"

	"tell/internal/metrics"
)

// seriesKey identifies one series. A struct key (not a concatenated
// string) so hot-path lookups do not allocate.
type seriesKey struct {
	Node   string
	Metric string
}

// kind discriminates series payloads.
type kind uint8

const (
	kindHist kind = iota // windowed latency histogram
	kindRate             // windowed event counter
)

// window is one time bucket of a series. idx is the absolute window index
// (at / Window), so the ring can tell a live slot from a stale one.
type window struct {
	idx    int64
	closed bool
	hist   metrics.Histogram // kindHist
	n      int64             // kindRate
}

// Series is one ring of windows for a (node, metric) pair. Rotation is
// driven entirely by the timestamps callers pass in, never by wall time,
// so series contents are a pure function of the event sequence.
type Series struct {
	key  seriesKey
	kind kind
	slo  *SLO // evaluated as histogram windows close; nil for most series

	ring []window
	cur  int64 // highest window index seen
	live bool  // any window recorded yet

	// total is the monotonic all-time count (rate deltas, or histogram
	// observations), for Prometheus-style counters that must survive
	// window eviction.
	total int64
}

// slot advances the series to the window containing at and returns that
// window. Windows the advance skips past are closed — histogram windows
// with an SLO get evaluated, in index order, producing breach events.
// Timestamps behind the current window fold into the current window (the
// clock is monotonic under the kernel; a daemon thread racing a rotation
// loses at most one window of attribution). Caller holds p.mu.
func (s *Series) slot(p *Pipeline, at time.Duration) *window {
	if at < 0 {
		at = 0
	}
	idx := int64(at / p.cfg.Window)
	if s.live && idx < s.cur {
		idx = s.cur
	}
	if !s.live || idx > s.cur {
		if s.live {
			s.closeUpTo(p, idx)
		}
		s.cur = idx
		s.live = true
	}
	w := &s.ring[idx%int64(len(s.ring))]
	if w.idx != idx {
		*w = window{idx: idx}
	}
	return w
}

// closeUpTo closes every still-open window with index < idx that holds
// data (empty windows are left alone — they never become points). Caller
// holds p.mu and guarantees s.live.
func (s *Series) closeUpTo(p *Pipeline, idx int64) {
	lo := s.cur - int64(len(s.ring)) + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j < idx && j <= s.cur; j++ {
		w := &s.ring[j%int64(len(s.ring))]
		if w.idx != j || w.closed || (w.hist.Count() == 0 && w.n == 0) {
			continue
		}
		w.closed = true
		if s.kind == kindHist {
			p.evalWindowLocked(s, w)
		}
	}
}

// getSeriesLocked returns (creating if needed) the series for key. Caller
// holds p.mu.
func (p *Pipeline) getSeriesLocked(node, metric string, k kind, slo *SLO) *Series {
	key := seriesKey{Node: node, Metric: metric}
	s := p.series[key]
	if s == nil {
		s = &Series{key: key, kind: k, slo: slo, ring: make([]window, p.cfg.Windows)}
		p.series[key] = s
	}
	if s.slo == nil && slo != nil {
		s.slo = slo
	}
	return s
}

func (p *Pipeline) histLocked(at time.Duration, node, metric string, slo *SLO) *metrics.Histogram {
	s := p.getSeriesLocked(node, metric, kindHist, slo)
	s.total++ // one Record per call, so this is the all-time observation count
	return &s.slot(p, at).hist
}

func (p *Pipeline) countLocked(at time.Duration, node, metric string, delta int64) {
	s := p.getSeriesLocked(node, metric, kindRate, nil)
	s.total += delta
	s.slot(p, at).n += delta
}

// Sync advances every series to the window containing at, closing (and
// SLO-evaluating) everything older. Exporters call it so that quiescent
// series still close their trailing windows. Series are walked in sorted
// key order, keeping breach-event order deterministic.
func (p *Pipeline) Sync(at time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	idx := int64(at / p.cfg.Window)
	for _, s := range p.sortedSeriesLocked() {
		if s.live && idx > s.cur {
			s.closeUpTo(p, idx)
			s.cur = idx
		}
	}
	for _, h := range p.sortedHeatLocked() {
		h.sync(at)
	}
}

// Point is one exported window of a series.
type Point struct {
	Idx   int64         // absolute window index
	Start time.Duration // Idx * Window
	// Histogram windows:
	Count          uint64
	Mean, P50, P99 time.Duration
	P999, Min, Max time.Duration
	// Rate windows:
	N int64
}

// SeriesDump is the export form of one series: its retained windows in
// index order plus the all-time total.
type SeriesDump struct {
	Node   string
	Metric string
	Hist   bool
	Total  int64 // all-time count (rate) or observation count (hist)
	Points []Point
}

// Snapshot exports every series, sorted by (node, metric), windows in
// ascending index order — the deterministic feed for dumps and the wire
// stats extension.
func (p *Pipeline) Snapshot() []SeriesDump {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SeriesDump, 0, len(p.series))
	for _, s := range p.sortedSeriesLocked() {
		d := SeriesDump{Node: s.key.Node, Metric: s.key.Metric,
			Hist: s.kind == kindHist, Total: s.total}
		for _, w := range s.windows() {
			pt := Point{Idx: w.idx, Start: time.Duration(w.idx) * p.cfg.Window}
			if s.kind == kindHist {
				pt.Count = w.hist.Count()
				if pt.Count > 0 {
					pt.Mean = w.hist.Mean()
					pt.P50 = w.hist.Percentile(50)
					pt.P99 = w.hist.Percentile(99)
					pt.P999 = w.hist.Percentile(99.9)
					pt.Min = w.hist.Min()
					pt.Max = w.hist.Max()
				}
			} else {
				pt.N = w.n
			}
			d.Points = append(d.Points, pt)
		}
		out = append(out, d)
	}
	return out
}

// Class returns the merged all-time histogram of one windowed histogram
// series (node, metric), merging retained windows in index order; nil if
// the series does not exist. Used by exporters that want run-level
// quantiles from the same data the windows hold.
func (p *Pipeline) Class(node, metric string) *metrics.Histogram {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.series[seriesKey{Node: node, Metric: metric}]
	if s == nil || s.kind != kindHist {
		return nil
	}
	h := &metrics.Histogram{}
	for _, w := range s.windows() {
		h.Merge(&w.hist)
	}
	return h
}

// windows returns pointers to the retained windows in ascending index
// order. Caller holds p.mu.
func (s *Series) windows() []*window {
	if !s.live {
		return nil
	}
	out := make([]*window, 0, len(s.ring))
	lo := s.cur - int64(len(s.ring)) + 1
	if lo < 0 {
		lo = 0
	}
	for j := lo; j <= s.cur; j++ {
		w := &s.ring[j%int64(len(s.ring))]
		if w.idx == j && (w.hist.Count() > 0 || w.n != 0 || w.closed || j == s.cur) {
			out = append(out, w)
		}
	}
	return out
}

// sortedSeriesLocked returns the series sorted by key. Caller holds p.mu.
func (p *Pipeline) sortedSeriesLocked() []*Series {
	out := make([]*Series, 0, len(p.series))
	for _, s := range p.series {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].key.Node != out[j].key.Node {
			return out[i].key.Node < out[j].key.Node
		}
		return out[i].key.Metric < out[j].key.Metric
	})
	return out
}

// sortedHeatLocked returns the heat trackers sorted by node. Caller holds
// p.mu.
func (p *Pipeline) sortedHeatLocked() []*Heat {
	out := make([]*Heat, 0, len(p.heat))
	for _, h := range p.heat {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].node < out[j].node })
	return out
}
