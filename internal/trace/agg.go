package trace

import (
	"time"

	"tell/internal/det"
)

// Comp indexes the latency components a transaction's end-to-end time is
// decomposed into. Under the simulator the decomposition can be exhaustive:
// virtual time only advances inside Sleep/Work/blocking waits, so charging
// every such wait to one component makes the residual ("other") ≈ 0.
type Comp int

const (
	// CompService is CPU service time (env.Ctx.Work actually executing).
	CompService Comp = iota
	// CompCoreWait is time queued for a core inside Work.
	CompCoreWait
	// CompPoolWait is time queued for a worker/partition job slot or a
	// client-side batcher.
	CompPoolWait
	// CompNetwork is wire time: transfer + propagation of messages.
	CompNetwork
	// CompRemote is time spent being serviced remotely (handler
	// execution and remote-side queueing seen from the caller).
	CompRemote
	// CompConflict is lock-wait and conflict-handling time (rollback of
	// applied operations, waiting on contended locks).
	CompConflict
	// CompRetry is time consumed by retry backoff and retried attempts.
	CompRetry

	NComps // number of components
)

var compNames = [NComps]string{
	"service", "core-wait", "queue-wait", "network", "remote", "conflict", "retry",
}

func (c Comp) String() string {
	if c < 0 || c >= NComps {
		return "other"
	}
	return compNames[c]
}

// TxnAgg accumulates one transaction's latency components. It is carried
// by the transaction's driving context (Scope.Agg) and mutated only from
// that context, so it needs no lock. All methods are nil-safe.
type TxnAgg struct {
	// Redirect, when ≥ 0, reroutes every Add into that component — set
	// around rollback (CompConflict) and retry (CompRetry) phases so the
	// network/CPU time those phases consume is charged to the cause.
	Redirect Comp
	D        [NComps]time.Duration
}

// NewTxnAgg returns an aggregator with redirection off.
func NewTxnAgg() *TxnAgg { return &TxnAgg{Redirect: -1} }

// Add charges d to component c (or to the redirect target if one is set).
func (a *TxnAgg) Add(c Comp, d time.Duration) {
	if a == nil || d <= 0 {
		return
	}
	if a.Redirect >= 0 {
		c = a.Redirect
	}
	a.D[c] += d
}

// Breakdown is the per-transaction-type aggregate of TxnAgg results.
type Breakdown struct {
	Type   string
	Count  uint64 // transactions folded in (committed + aborted)
	Aborts uint64
	E2E    time.Duration // summed end-to-end latency
	Comp   [NComps]time.Duration
}

// Sum returns the total attributed time across components.
func (b *Breakdown) Sum() time.Duration {
	var s time.Duration
	for _, d := range b.Comp {
		s += d
	}
	return s
}

// Other is the unattributed residual: E2E − Σ components. It can be
// slightly negative when a component overlaps the measurement edge.
func (b *Breakdown) Other() time.Duration { return b.E2E - b.Sum() }

// SeriesPoint is one sample of a per-node time series.
type SeriesPoint struct {
	At time.Duration // window start
	V  float64
}

// NodeSeries is a windowed time series for one node.
type NodeSeries struct {
	Node   string
	Cores  int // number of cores seen (utilization series only)
	Points []SeriesPoint
}

// MeanUtilization returns each node's overall busy fraction over [0, end of
// last run interval), sorted by node name.
func (r *Recorder) MeanUtilization() []NodeSeries {
	if r == nil {
		return nil
	}
	type nodeAcc struct {
		cores int
		busy  time.Duration
	}
	accs := make(map[string]*nodeAcc)
	var horizon time.Duration
	for _, e := range r.Events() {
		if e.Kind != KindCoreRun {
			continue
		}
		a := accs[e.Node]
		if a == nil {
			a = &nodeAcc{}
			accs[e.Node] = a
		}
		if int(e.Arg1)+1 > a.cores {
			a.cores = int(e.Arg1) + 1
		}
		a.busy += e.Dur
		if end := e.At + e.Dur; end > horizon {
			horizon = end
		}
	}
	if horizon == 0 {
		return nil
	}
	out := make([]NodeSeries, 0, len(accs))
	for _, node := range det.Keys(accs) {
		a := accs[node]
		out = append(out, NodeSeries{Node: node, Cores: a.cores, Points: []SeriesPoint{
			{At: 0, V: float64(a.busy) / (float64(horizon) * float64(a.cores))},
		}})
	}
	return out
}

// QueueDepth aggregates samples of the named counter into per-node
// per-window means, sorted by node name.
func (r *Recorder) QueueDepth(name string, window time.Duration) []NodeSeries {
	if r == nil || window <= 0 {
		return nil
	}
	type acc struct {
		sum map[int]int64
		n   map[int]int64
	}
	accs := make(map[string]*acc)
	maxWin := 0
	for _, e := range r.Events() {
		if e.Kind != KindCounter || e.Name != name {
			continue
		}
		a := accs[e.Node]
		if a == nil {
			a = &acc{sum: make(map[int]int64), n: make(map[int]int64)}
			accs[e.Node] = a
		}
		wi := int(e.At / window)
		a.sum[wi] += e.Arg1
		a.n[wi]++
		if wi+1 > maxWin {
			maxWin = wi + 1
		}
	}
	out := make([]NodeSeries, 0, len(accs))
	for _, node := range det.Keys(accs) {
		a := accs[node]
		s := NodeSeries{Node: node}
		for wi := 0; wi < maxWin; wi++ {
			var v float64
			if a.n[wi] > 0 {
				v = float64(a.sum[wi]) / float64(a.n[wi])
			}
			s.Points = append(s.Points, SeriesPoint{At: time.Duration(wi) * window, V: v})
		}
		out = append(out, s)
	}
	return out
}
