package obs

import (
	"sort"
	"sync"
	"time"

	"tell/internal/det"
)

// HeatDelta is one batch of per-range activity a storage node folds into
// its heat tracker: operation counts, payload bytes, and handler latency
// attributed to the range (LatN observations summing to Lat).
type HeatDelta struct {
	Reads      int64
	Writes     int64
	Conflicts  int64
	ReadBytes  int64
	WriteBytes int64
	Lat        time.Duration
	LatN       int64
}

func (d *HeatDelta) add(o HeatDelta) {
	d.Reads += o.Reads
	d.Writes += o.Writes
	d.Conflicts += o.Conflicts
	d.ReadBytes += o.ReadBytes
	d.WriteBytes += o.WriteBytes
	d.Lat += o.Lat
	d.LatN += o.LatN
}

// Ops returns the operation count (reads + writes) — the scalar "heat" a
// placement controller ranks ranges by.
func (d *HeatDelta) Ops() int64 { return d.Reads + d.Writes }

// heatCell is one window of one range's activity.
type heatCell struct {
	idx int64
	d   HeatDelta
}

// rangeHeat is one partition's ring of windows plus all-time totals.
type rangeHeat struct {
	ring  []heatCell
	cur   int64
	live  bool
	total HeatDelta
}

// Heat tracks per-range activity on one storage node: windowed cells for
// recent-rate queries (the placement feed) and monotonic totals for
// counters. It has its own mutex — storage nodes call Add on their hot
// path without touching the pipeline lock. All methods are nil-safe.
type Heat struct {
	node    string
	width   time.Duration
	windows int

	mu     sync.Mutex
	ranges map[uint64]*rangeHeat
	cur    int64 // highest window index seen on this node
}

func newHeat(node string, width time.Duration, windows int) *Heat {
	return &Heat{node: node, width: width, windows: windows,
		ranges: make(map[uint64]*rangeHeat)}
}

// Add folds a delta for range rng at time at.
func (h *Heat) Add(at time.Duration, rng uint64, d HeatDelta) {
	if h == nil {
		return
	}
	if at < 0 {
		at = 0
	}
	h.mu.Lock()
	idx := int64(at / h.width)
	if idx > h.cur {
		h.cur = idx
	}
	r := h.ranges[rng]
	if r == nil {
		r = &rangeHeat{ring: make([]heatCell, h.windows)}
		h.ranges[rng] = r
	}
	if r.live && idx < r.cur {
		idx = r.cur // fold stragglers into the current window
	}
	if !r.live || idx > r.cur {
		r.cur, r.live = idx, true
	}
	c := &r.ring[idx%int64(len(r.ring))]
	if c.idx != idx {
		*c = heatCell{idx: idx}
	}
	c.d.add(d)
	r.total.add(d)
	h.mu.Unlock()
}

// sync advances the node's current-window marker so recent-rate queries
// age out stale cells even when the node has gone quiet.
func (h *Heat) sync(at time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if idx := int64(at / h.width); idx > h.cur {
		h.cur = idx
	}
	h.mu.Unlock()
}

// HeatRow is the export form of one (node, range) pair: all-time totals
// plus activity summed over the retained recent windows, with the span
// those windows cover (for rate conversion).
type HeatRow struct {
	Node   string
	Range  uint64
	Total  HeatDelta
	Recent HeatDelta
	// RecentSpan is the wall span the Recent window set covers — the
	// retention horizon, windows*width — so Recent.Ops()/RecentSpan is an
	// ops/sec rate comparable across rows.
	RecentSpan time.Duration
}

// MeanLat returns the mean attributed latency over d's observations.
func (d *HeatDelta) MeanLat() time.Duration {
	if d.LatN == 0 {
		return 0
	}
	return d.Lat / time.Duration(d.LatN)
}

// snapshot exports the node's rows sorted by range id. Caller-side lock
// discipline: takes h.mu itself.
func (h *Heat) snapshot() []HeatRow {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	span := time.Duration(h.windows) * h.width
	out := make([]HeatRow, 0, len(h.ranges))
	for _, rng := range det.Keys(h.ranges) {
		r := h.ranges[rng]
		row := HeatRow{Node: h.node, Range: rng, Total: r.total, RecentSpan: span}
		lo := h.cur - int64(h.windows) + 1
		for j := range r.ring {
			c := &r.ring[j]
			if c.idx >= lo && (c.idx > 0 || c.d != (HeatDelta{})) {
				row.Recent.add(c.d)
			}
		}
		out = append(out, row)
	}
	return out
}

// HeatRows exports every node's per-range rows, sorted by (node, range) —
// the deterministic heat feed for dumps, the wire stats extension, and a
// future placement controller.
func (p *Pipeline) HeatRows() []HeatRow {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	heats := p.sortedHeatLocked()
	p.mu.Unlock()
	var out []HeatRow
	for _, h := range heats {
		out = append(out, h.snapshot()...)
	}
	return out
}

// SortHeatByRecent orders rows hottest-first (recent ops descending, then
// node, then range) — the presentation order for `tellcli top`.
func SortHeatByRecent(rows []HeatRow) {
	sort.Slice(rows, func(i, j int) bool {
		oi, oj := rows[i].Recent.Ops(), rows[j].Recent.Ops()
		if oi != oj {
			return oi > oj
		}
		if rows[i].Node != rows[j].Node {
			return rows[i].Node < rows[j].Node
		}
		return rows[i].Range < rows[j].Range
	})
}
