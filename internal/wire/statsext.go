package wire

import (
	"fmt"
	"sort"
)

// This file defines the stats protocol, the one telemetry message every
// daemon role answers: current windowed-series digests, plain counters,
// per-range heat rows, SLO breach tallies and flight-recorder state.
// `tellcli stats` renders one daemon's snapshot, `tellcli top` the cluster:
// the management node answers with a cluster-wide aggregation (fan-out over
// the storage nodes), so one request paints the whole heatmap.

// SeriesStat is the digest of one windowed series: the merged quantiles
// over the retained windows plus the all-time total.
type SeriesStat struct {
	Node   string
	Metric string
	Hist   bool
	Total  int64
	Count  uint64 // observations in the retained windows (hist only)
	MeanNs int64
	P50Ns  int64
	P99Ns  int64
	P999Ns int64
}

// HeatStat is one (node, range) heat row: all-time totals plus activity
// over the retention horizon.
type HeatStat struct {
	Node        string
	Range       uint64
	Reads       int64
	Writes      int64
	Conflicts   int64
	ReadBytes   int64
	WriteBytes  int64
	RecentOps   int64
	RecentLatNs int64 // mean attributed latency over the retained windows
}

// MigrationStat is one live or recently finished range migration as seen
// by the node reporting it (the management node reports the authoritative
// view; storage nodes report the ranges they are shipping or adopting).
type MigrationStat struct {
	Node       string // reporting node
	Range      uint64 // partition id being moved
	Phase      string // "copy", "delta", "fence", "cutover", "done", "aborted"
	Source     string
	Target     string
	BytesMoved int64
	Chunks     int64
}

// BreachStat is one aggregated SLO violation tally.
type BreachStat struct {
	Class    string
	Quantile string
	Count    int64
}

// FlightStat summarizes the flight recorder.
type FlightStat struct {
	Retained uint64
	Evicted  uint64
	Seen     uint64
}

// StatsExt is the extended telemetry snapshot.
type StatsExt struct {
	Node     string
	NowNs    int64
	WindowNs int64
	Series   []SeriesStat
	Heat     []HeatStat
	Breaches []BreachStat
	Migr     []MigrationStat
	Flight   FlightStat
}

// EncodeStatsExtReq builds the (payload-free) extended stats request.
func EncodeStatsExtReq() []byte { return []byte{byte(KindStatsExtReq)} }

// AddCounter appends a plain (non-histogram) series row carrying one running
// total. Call SortRows afterwards to restore the canonical order.
func (m *StatsExt) AddCounter(node, metric string, total int64) {
	m.Series = append(m.Series, SeriesStat{Node: node, Metric: metric, Total: total})
}

// Merge folds another daemon's snapshot into m — the management node's
// cluster aggregation. Rows carry their origin node, so merging is
// concatenation plus breach-tally summation; call SortRows afterwards to
// restore the canonical order.
func (m *StatsExt) Merge(other *StatsExt) {
	m.Series = append(m.Series, other.Series...)
	m.Heat = append(m.Heat, other.Heat...)
	for _, ob := range other.Breaches {
		found := false
		for i := range m.Breaches {
			if m.Breaches[i].Class == ob.Class && m.Breaches[i].Quantile == ob.Quantile {
				m.Breaches[i].Count += ob.Count
				found = true
				break
			}
		}
		if !found {
			m.Breaches = append(m.Breaches, ob)
		}
	}
	m.Migr = append(m.Migr, other.Migr...)
	m.Flight.Retained += other.Flight.Retained
	m.Flight.Evicted += other.Flight.Evicted
	m.Flight.Seen += other.Flight.Seen
	if other.NowNs > m.NowNs {
		m.NowNs = other.NowNs
	}
	if m.WindowNs == 0 {
		m.WindowNs = other.WindowNs
	}
}

// SortRows restores the canonical row order: series by (node, metric),
// heat by (node, range), breaches by (class, quantile). Exporters rely on
// this for deterministic output.
func (m *StatsExt) SortRows() {
	sort.Slice(m.Series, func(i, j int) bool {
		if m.Series[i].Node != m.Series[j].Node {
			return m.Series[i].Node < m.Series[j].Node
		}
		return m.Series[i].Metric < m.Series[j].Metric
	})
	sort.Slice(m.Heat, func(i, j int) bool {
		if m.Heat[i].Node != m.Heat[j].Node {
			return m.Heat[i].Node < m.Heat[j].Node
		}
		return m.Heat[i].Range < m.Heat[j].Range
	})
	sort.Slice(m.Breaches, func(i, j int) bool {
		if m.Breaches[i].Class != m.Breaches[j].Class {
			return m.Breaches[i].Class < m.Breaches[j].Class
		}
		return m.Breaches[i].Quantile < m.Breaches[j].Quantile
	})
	sort.Slice(m.Migr, func(i, j int) bool {
		if m.Migr[i].Node != m.Migr[j].Node {
			return m.Migr[i].Node < m.Migr[j].Node
		}
		if m.Migr[i].Range != m.Migr[j].Range {
			return m.Migr[i].Range < m.Migr[j].Range
		}
		return m.Migr[i].Phase < m.Migr[j].Phase
	})
}

// Encode serializes the snapshot.
func (m *StatsExt) Encode() []byte {
	w := NewWriter(128 + 48*(len(m.Series)+len(m.Heat)))
	w.Byte(byte(KindStatsExtResp))
	w.String(m.Node)
	w.Varint(m.NowNs)
	w.Varint(m.WindowNs)
	w.Uvarint(uint64(len(m.Series)))
	for i := range m.Series {
		s := &m.Series[i]
		w.String(s.Node)
		w.String(s.Metric)
		w.Bool(s.Hist)
		w.Varint(s.Total)
		w.Uvarint(s.Count)
		w.Varint(s.MeanNs)
		w.Varint(s.P50Ns)
		w.Varint(s.P99Ns)
		w.Varint(s.P999Ns)
	}
	w.Uvarint(uint64(len(m.Heat)))
	for i := range m.Heat {
		h := &m.Heat[i]
		w.String(h.Node)
		w.Uvarint(h.Range)
		w.Varint(h.Reads)
		w.Varint(h.Writes)
		w.Varint(h.Conflicts)
		w.Varint(h.ReadBytes)
		w.Varint(h.WriteBytes)
		w.Varint(h.RecentOps)
		w.Varint(h.RecentLatNs)
	}
	w.Uvarint(uint64(len(m.Breaches)))
	for i := range m.Breaches {
		b := &m.Breaches[i]
		w.String(b.Class)
		w.String(b.Quantile)
		w.Varint(b.Count)
	}
	w.Uvarint(uint64(len(m.Migr)))
	for i := range m.Migr {
		g := &m.Migr[i]
		w.String(g.Node)
		w.Uvarint(g.Range)
		w.String(g.Phase)
		w.String(g.Source)
		w.String(g.Target)
		w.Varint(g.BytesMoved)
		w.Varint(g.Chunks)
	}
	w.Uvarint(m.Flight.Retained)
	w.Uvarint(m.Flight.Evicted)
	w.Uvarint(m.Flight.Seen)
	return w.Bytes()
}

// DecodeStatsExt parses an encoded StatsExt.
func DecodeStatsExt(b []byte) (*StatsExt, error) {
	r := NewReader(b)
	if k := Kind(r.Byte()); k != KindStatsExtResp {
		return nil, fmt.Errorf("wire: kind %d is not an extended stats response", k)
	}
	m := &StatsExt{Node: r.String(), NowNs: r.Varint(), WindowNs: r.Varint()}
	ns := r.Count(9)
	if ns > 0 {
		m.Series = make([]SeriesStat, ns)
	}
	for i := range m.Series {
		s := &m.Series[i]
		s.Node = r.String()
		s.Metric = r.String()
		s.Hist = r.Bool()
		s.Total = r.Varint()
		s.Count = r.Uvarint()
		s.MeanNs = r.Varint()
		s.P50Ns = r.Varint()
		s.P99Ns = r.Varint()
		s.P999Ns = r.Varint()
	}
	nh := r.Count(9)
	if nh > 0 {
		m.Heat = make([]HeatStat, nh)
	}
	for i := range m.Heat {
		h := &m.Heat[i]
		h.Node = r.String()
		h.Range = r.Uvarint()
		h.Reads = r.Varint()
		h.Writes = r.Varint()
		h.Conflicts = r.Varint()
		h.ReadBytes = r.Varint()
		h.WriteBytes = r.Varint()
		h.RecentOps = r.Varint()
		h.RecentLatNs = r.Varint()
	}
	nb := r.Count(3)
	if nb > 0 {
		m.Breaches = make([]BreachStat, nb)
	}
	for i := range m.Breaches {
		b := &m.Breaches[i]
		b.Class = r.String()
		b.Quantile = r.String()
		b.Count = r.Varint()
	}
	nm := r.Count(7)
	if nm > 0 {
		m.Migr = make([]MigrationStat, nm)
	}
	for i := range m.Migr {
		g := &m.Migr[i]
		g.Node = r.String()
		g.Range = r.Uvarint()
		g.Phase = r.String()
		g.Source = r.String()
		g.Target = r.String()
		g.BytesMoved = r.Varint()
		g.Chunks = r.Varint()
	}
	m.Flight.Retained = r.Uvarint()
	m.Flight.Evicted = r.Uvarint()
	m.Flight.Seen = r.Uvarint()
	return m, r.Close()
}
