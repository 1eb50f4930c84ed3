package obs

import (
	"io"
	"time"

	"tell/internal/trace"
)

// WriteChromeTrace renders one capture's events as Chrome trace_event
// JSON (Perfetto-loadable) — the per-outlier export.
func (c *Capture) WriteChromeTrace(w io.Writer) error {
	return trace.WriteChromeTraceEvents(w, c.Events)
}

// Count adds delta to a windowed counter-rate series (node, metric) at
// time at.
func (p *Pipeline) Count(at time.Duration, node, metric string, delta int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.countLocked(at, node, metric, delta)
	p.mu.Unlock()
}

// Enabled reports whether the pipeline is live.
func (p *Pipeline) Enabled() bool { return p != nil }
