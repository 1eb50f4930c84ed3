// Package recovery implements the management node's processing-node
// recovery (§4.4.1). Failures are detected by an eventually perfect,
// timeout-based failure detector. When a PN is declared failed, a recovery
// process discovers its active transactions by iterating the transaction
// log backwards from the highest tid to the lowest active version number
// (which acts as a rolling checkpoint), fences each uncommitted entry, and
// reverts the write set: the version with number tid is removed from every
// record. The management node ensures only one recovery process runs at a
// time; a single process can handle multiple node failures.
package recovery

import (
	"time"

	"tell/internal/commitmgr"
	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/store"
	"tell/internal/transport"
	"tell/internal/txlog"
)

// Manager is the management node responsible for processing nodes.
type Manager struct {
	envr env.Full
	node env.Node
	sc   *store.Client
	cm   *commitmgr.Client
	log  *txlog.Log

	// retr pins probes to the single-attempt ping policy: a transport-level
	// retry inside one probe would count several misses per window and
	// destroy the store.FailAfter calibration.
	retr  *resil.Retrier
	conns *transport.ConnSet

	mu      sanitize.Mutex
	pns     map[string]bool // addr → declared dead
	misses  map[string]int
	stopped bool
	// recovering serializes recovery processes ("the management node
	// ensures that only one recovery process is running at a time").
	recovering bool
	pendingQ   []string

	recoveries  int
	rolledBack  int
	OnRecovered func(pn string, rolledBack int)
}

// pingInterval paces the failure detector's ping rounds; a PN is declared
// dead after store.FailAfter consecutive misses, as a storage node is.
const pingInterval = 5 * time.Millisecond

// NewManager creates a PN management node.
func NewManager(envr env.Full, node env.Node, tr transport.Transport, sc *store.Client, cm *commitmgr.Client) *Manager {
	m := &Manager{
		envr:   envr,
		node:   node,
		sc:     sc,
		cm:     cm,
		log:    txlog.New(sc),
		retr:   resil.NewRetrier(),
		pns:    make(map[string]bool),
		misses: make(map[string]int),
		conns:  transport.NewConnSet(tr, node),
	}
	m.mu.SetName("recovery.Manager.mu")
	return m
}

// Watch registers a PN address with the failure detector.
func (m *Manager) Watch(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pns[addr] = false
}

// Start launches the failure detector loop.
func (m *Manager) Start() {
	m.node.Go("pn-failure-detector", m.monitor)
}

// Stop halts the failure detector.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

func (m *Manager) monitor(ctx env.Ctx) {
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		// Ping in sorted address order; the probe sequence is
		// simulation-visible (each ping is an RPC).
		var targets []string
		for _, addr := range det.Keys(m.pns) {
			if !m.pns[addr] {
				targets = append(targets, addr)
			}
		}
		m.mu.Unlock()

		for _, addr := range targets {
			alive := m.retr.Ping(ctx, m.conns, addr)
			m.mu.Lock()
			if alive {
				m.misses[addr] = 0
				m.mu.Unlock()
				continue
			}
			if m.pns[addr] {
				// Already declared dead while this round was in flight. An
				// endpoint the chaos layer has both partitioned and crashed
				// fails for two reasons, but it is one failure: never let
				// a late probe count a second miss or queue a second
				// recovery.
				m.mu.Unlock()
				continue
			}
			m.misses[addr]++
			failed := m.misses[addr] >= store.FailAfter
			m.mu.Unlock()
			if failed {
				m.declareFailed(ctx, addr)
			}
		}
		ctx.Sleep(pingInterval)
	}
}

// declareFailed queues the node for recovery; one recovery process handles
// the queue (and can therefore absorb multiple concurrent failures). It is
// idempotent: a node can only be declared dead once per Watch, no matter how
// many overlapping fault conditions (crash, partition) made probes fail.
func (m *Manager) declareFailed(ctx env.Ctx, addr string) {
	m.mu.Lock()
	if m.pns[addr] {
		m.mu.Unlock()
		return
	}
	m.pns[addr] = true
	m.misses[addr] = 0 // a future re-Watch starts from a clean counter
	m.pendingQ = append(m.pendingQ, addr)
	launch := !m.recovering
	m.recovering = true
	m.mu.Unlock()
	if launch {
		m.node.Go("recovery", m.recoveryProcess)
	}
}

func (m *Manager) recoveryProcess(ctx env.Ctx) {
	for {
		m.mu.Lock()
		if len(m.pendingQ) == 0 {
			m.recovering = false
			m.mu.Unlock()
			return
		}
		addr := m.pendingQ[0]
		m.pendingQ = m.pendingQ[1:]
		m.mu.Unlock()

		n, err := m.Recover(ctx, addr)
		m.mu.Lock()
		if err == nil {
			m.recoveries++
			m.rolledBack += n
		}
		cb := m.OnRecovered
		m.mu.Unlock()
		if cb != nil && err == nil {
			cb(addr, n)
		}
	}
}

// Recover rolls back every active (uncommitted) transaction of the failed
// node pnID and returns how many were reverted. It is exported so tests and
// operators can trigger recovery directly.
func (m *Manager) Recover(ctx env.Ctx, pnID string) (int, error) {
	// Discover the scan bounds: the highest tid comes from the commit
	// manager (we start and immediately finish a probe transaction), and
	// the lav acts as the rolling checkpoint.
	probe, err := m.cm.Start(ctx)
	if err != nil {
		return 0, err
	}
	highest := probe.TID
	lav := probe.Lav
	m.cm.Aborted(ctx, probe.TID)

	var victims []*txlog.Entry
	err = m.log.ScanBackward(ctx, lav, highest, func(e *txlog.Entry) bool {
		if e.PN == pnID && !e.Committed && !e.Aborted {
			victims = append(victims, e)
		}
		return true
	})
	if err != nil {
		return 0, err
	}
	rolled := 0
	for _, e := range victims {
		// Fence first: a falsely-suspected PN that is still alive can no
		// longer set the commit flag once the entry is marked aborted.
		fenced, committed, err := m.log.MarkAborted(ctx, e.TID)
		if err != nil {
			return rolled, err
		}
		if committed || !fenced {
			continue // it committed after we scanned: leave it alone
		}
		for _, key := range e.WriteSet {
			if err := txlog.RollbackVersion(ctx, m.sc, key, e.TID); err != nil {
				return rolled, err
			}
		}
		m.cm.Aborted(ctx, e.TID)
		rolled++
	}
	return rolled, nil
}
