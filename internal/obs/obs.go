// Package obs is the deterministic time-series telemetry pipeline: the
// live, windowed view of the engine that PR-3's trace layer (running
// totals, whole-run traces) cannot give. It answers the questions the
// paper's shared-data design raises operationally — which storage-node
// range is hot, which transaction class is violating its latency SLO, what
// exactly did the slowest transactions do — with three instruments layered
// on the virtual clock:
//
//   - Windowed series: ring-buffered, mergeable windows of the existing
//     metrics.Histogram plus counter-rate series, keyed by (node, metric).
//     Windows advance with the timestamps callers pass in (the env clock),
//     so two runs with the same TELL_SEED produce byte-identical series.
//
//   - Per-range heat: read/write/conflict/bytes counters and latency per
//     partition on every storage node, the feed a placement controller
//     needs to detect and move hot ranges (H2O-style autonomic placement).
//
//   - Flight recorder: tail-based sampling that retroactively captures the
//     full span tree of any transaction crossing a latency threshold (fixed
//     or adaptive p99.9) or extending a per-class abort streak, into a
//     bounded deterministic ring with Perfetto export of just the outliers.
//
// Like internal/trace, the whole pipeline is free when absent: every method
// is a no-op on a nil receiver and the disabled path allocates nothing, so
// hooks can stay unconditional on hot paths.
package obs

import (
	"sync"
	"time"

	"tell/internal/metrics"
	"tell/internal/trace"
)

// SLO is one declarative latency objective for a transaction class.
// Quantiles with a zero target are not checked.
type SLO struct {
	Class          string
	P50, P99, P999 time.Duration
}

// Config tunes the pipeline. The zero value gets usable defaults.
type Config struct {
	// Window is the width of one series window (default 100ms — sized for
	// simulated runs; daemons use ~1s).
	Window time.Duration
	// Windows is the ring capacity per series (default 64).
	Windows int
	// SLOs are the declarative per-class latency targets evaluated each
	// time a window closes.
	SLOs []SLO

	// Slow is the flight recorder's fixed latency threshold; transactions
	// at or above it are captured. Zero relies on the adaptive threshold
	// alone.
	Slow time.Duration
	// AdaptiveOutliers, when true, additionally captures any transaction at
	// or above its class's all-time p99.9 once MinSamples of the class have
	// been observed (the "p99.9 outlier" rule; deterministic because the
	// threshold depends only on prior same-run samples).
	AdaptiveOutliers bool
	// MinSamples gates the adaptive threshold (default 500).
	MinSamples int
	// AbortStreak captures the transaction that extends a class's run of
	// consecutive aborts to this length (default 3; the "aborting after N
	// retries" rule — a terminal retrying a conflicting transaction shows
	// up as exactly such a streak). Zero disables abort capture.
	AbortStreak int
	// FlightEvents is the tap ring capacity in events (default 1<<16,
	// ~4 MiB); FlightCaptures bounds retained captures (default 32).
	FlightEvents   int
	FlightCaptures int
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 100 * time.Millisecond
	}
	if c.Windows <= 0 {
		c.Windows = 64
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 500
	}
	if c.AbortStreak == 0 {
		c.AbortStreak = 3
	}
	if c.FlightEvents <= 0 {
		c.FlightEvents = 1 << 16
	}
	if c.FlightCaptures <= 0 {
		c.FlightCaptures = 32
	}
}

// Pipeline is the telemetry hub one run (or one daemon) owns: the series
// table, per-node heat trackers, the SLO breach log and the flight
// recorder. All methods are safe on a nil receiver — the disabled state —
// and safe for concurrent use.
type Pipeline struct {
	cfg Config
	now func() time.Duration

	mu       sync.Mutex
	series   map[seriesKey]*Series
	heat     map[string]*Heat
	slos     map[string]*SLO // class -> target
	breaches []Breach
	bdrop    uint64
	// classAll is the all-time per-class latency histogram backing the
	// adaptive outlier threshold.
	classAll map[string]*metrics.Histogram

	flight *Flight
}

// New creates a pipeline stamping relative time with now (the owning
// environment's clock; injected so obs depends on neither env nor sim).
func New(cfg Config, now func() time.Duration) *Pipeline {
	cfg.defaults()
	p := &Pipeline{
		cfg:      cfg,
		now:      now,
		series:   make(map[seriesKey]*Series),
		heat:     make(map[string]*Heat),
		slos:     make(map[string]*SLO),
		classAll: make(map[string]*metrics.Histogram),
	}
	for i := range cfg.SLOs {
		s := cfg.SLOs[i]
		p.slos[s.Class] = &s
	}
	p.flight = newFlight(cfg)
	return p
}

// Now reads the pipeline's clock (zero when disabled).
func (p *Pipeline) Now() time.Duration {
	if p == nil || p.now == nil {
		return 0
	}
	return p.now()
}

// Flight returns the flight recorder (nil when the pipeline is disabled).
// The result implements trace.Tap; install it with Recorder.SetTap.
func (p *Pipeline) Flight() *Flight {
	if p == nil {
		return nil
	}
	return p.flight
}

// Heat returns (creating on first use) the per-range heat tracker for one
// storage node. Returns nil on a disabled pipeline; every Heat method is
// nil-safe, so callers attach it unconditionally.
func (p *Pipeline) Heat(node string) *Heat {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	h := p.heat[node]
	if h == nil {
		h = newHeat(node, p.cfg.Window, p.cfg.Windows)
		p.heat[node] = h
	}
	return h
}

// ObserveClass records one latency observation of a named class on a node
// into that class's windowed histogram series — the handler-latency feed
// daemons publish.
func (p *Pipeline) ObserveClass(at time.Duration, node, class string, d time.Duration) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.histLocked(at, node, "lat/"+class, nil).Record(d)
	p.mu.Unlock()
}

// ObserveTxn folds one finished transaction into the pipeline: the class's
// windowed latency histogram (evaluated against its SLO as windows close),
// committed/aborted rate series, the adaptive outlier threshold, and the
// flight recorder's capture decision. root is the transaction's root span
// (zero when tracing is off — the flight recorder then has nothing to
// extract and skips capture).
func (p *Pipeline) ObserveTxn(at time.Duration, class string, root trace.SpanID, e2e time.Duration, committed bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	slo := p.slos[class]
	p.histLocked(at, "txn", "lat/"+class, slo).Record(e2e)
	if committed {
		p.countLocked(at, "txn", "rate/committed", 1)
	} else {
		p.countLocked(at, "txn", "rate/aborted", 1)
	}
	all := p.classAll[class]
	if all == nil {
		all = &metrics.Histogram{}
		p.classAll[class] = all
	}
	// Threshold from the distribution *before* this sample, so the first
	// extreme outlier is judged against its predecessors.
	var adaptive time.Duration
	if p.cfg.AdaptiveOutliers && all.Count() >= uint64(p.cfg.MinSamples) {
		adaptive = all.Percentile(99.9)
	}
	all.Record(e2e)
	p.mu.Unlock()

	p.flight.observe(at, class, root, e2e, committed, p.cfg.Slow, adaptive)
}

// Breach is one SLO violation: a closed window whose class quantile
// exceeded its declarative target.
type Breach struct {
	At       time.Duration // window start
	Class    string
	Quantile string // "p50" | "p99" | "p999"
	Observed time.Duration
	Target   time.Duration
	Count    uint64 // samples in the window
}

// Breaches returns the stored breach events in occurrence order plus the
// count of breaches dropped at the maxBreaches cap.
func (p *Pipeline) Breaches() ([]Breach, uint64) {
	if p == nil {
		return nil, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]Breach, len(p.breaches))
	copy(out, p.breaches)
	return out, p.bdrop
}

// maxBreaches bounds the breach-event log; past it new breaches are counted
// but not stored.
const maxBreaches = 1024

// breachLocked appends one breach event. Caller holds p.mu.
func (p *Pipeline) breachLocked(b Breach) {
	if len(p.breaches) >= maxBreaches {
		p.bdrop++
		return
	}
	p.breaches = append(p.breaches, b)
}

// evalWindowLocked checks a just-closed histogram window against its
// series' SLO target. Caller holds p.mu.
func (p *Pipeline) evalWindowLocked(s *Series, w *window) {
	if s.slo == nil || w.hist.Count() == 0 {
		return
	}
	at := time.Duration(w.idx) * p.cfg.Window
	check := func(q string, pct float64, target time.Duration) {
		if target <= 0 {
			return
		}
		if got := w.hist.Percentile(pct); got > target {
			p.breachLocked(Breach{At: at, Class: s.slo.Class, Quantile: q,
				Observed: got, Target: target, Count: w.hist.Count()})
		}
	}
	check("p50", 50, s.slo.P50)
	check("p99", 99, s.slo.P99)
	check("p999", 99.9, s.slo.P999)
}
