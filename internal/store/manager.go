package store

import (
	"time"

	"tell/internal/det"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/transport"
	"tell/internal/wire"
)

// Manager is the storage layer's management node (§4.4.2): it detects
// failures with a timeout-based (eventually perfect) failure detector,
// manages the partition map, fails partitions over to replicas, restores
// the replication level from spare nodes, and serves partition-map lookups
// to clients (the "lookup service" of §2.1).
type Manager struct {
	addr string
	envr env.Full
	node env.Node
	tr   transport.Transport

	// PingInterval paces the failure detector's ping rounds.
	PingInterval time.Duration
	// ReplicationFactor is the target number of copies (master included).
	ReplicationFactor int

	// retr brackets every outbound RPC in a retry policy: pings pin to the
	// single-attempt ClassPing so the FailAfter calibration holds, and
	// failover pushes use ClassMeta so a transient drop does not strand a
	// survivor on a stale partition map.
	retr  *resil.Retrier
	conns *transport.ConnSet

	mu      sanitize.Mutex
	pmap    *PartitionMap
	spares  []string
	dead    map[string]bool
	misses  map[string]int
	stopped bool

	// OnFailover, if set, is called (without the lock) after a node has
	// been failed over; tests use it to observe recovery.
	OnFailover func(addr string)

	// Recoverer, if set, rebuilds partitions that lost every copy from the
	// dead node's durable log (scatter-gather across survivors, see
	// internal/recovery). Without it such partitions go headless.
	Recoverer SNRecoverer

	// Fence, if set, samples the commit managers' snapshot boundary (the
	// lowest active version) at migration cutover; the token rides the
	// cutover journal record. Wired to commitmgr by the cluster assembly.
	Fence func(ctx env.Ctx) uint64

	// OnCutoverJournaled, if set, is called after a migration's cutover
	// record is durable but before the new map is installed or published.
	// Returning false abandons the coordinator mid-flight — crash-recovery
	// tests use it to emulate a manager death at the commit point.
	OnCutoverJournaled func(pid uint64) bool

	// journal is the durable migration journal (see placement.go). Guarded
	// by mu; nil means migrations are not crash-recoverable on the manager.
	journal durable.Backend
	// known lists storage nodes registered via AddNode that may not appear
	// in the partition map yet (fresh, empty scale-out targets).
	known map[string]bool
	// migs is the manager's authoritative migration telemetry, by range id.
	migs map[uint64]*wire.MigrationStat
	// inflight marks ranges with an active migration.
	inflight map[uint64]bool
	// heatPrev holds the cumulative per-(node, range) op totals seen at the
	// controller's previous load pass: planning ranks ranges by the delta
	// since then, so heat follows a range to its new owner immediately
	// instead of lingering at the old one for a retention horizon.
	heatPrev map[string]map[uint64]int64
	// planPass counts controller planning passes; cooled records the pass
	// at which each range last migrated (anti-ping-pong cooldown).
	planPass int
	cooled   map[uint64]int
	// hotShare is the hottest node's fraction of total ops at the latest
	// planning pass — the convergence signal Cluster.Rebalance watches to
	// stop once actions no longer improve the balance (some hotspots, like
	// an append-frontier log range, are irreducible by placement).
	hotShare float64
	// schedule is the placement controller's decision log (virtual
	// timestamps only, so same-seed runs produce identical schedules).
	schedule []string

	// probing marks dead nodes with a rejoin probe in flight, so the
	// monitor never stacks probes on one address.
	probing map[string]bool

	failovers  int
	recoveries int
}

// SNRecoverer reconstructs a dead storage node's partitions from its durable
// objects. It returns the surviving node that now masters each recovered
// partition. Called without the manager lock; survivors excludes the dead
// node.
type SNRecoverer interface {
	RecoverSN(ctx env.Ctx, dead string, pids []uint64, survivors []string) (map[uint64]string, error)
}

// FailAfter is the failure detector's rule (§4.4): a node is declared dead
// after this many consecutive missed pings.
const FailAfter = 3

// NewManager creates a management node serving addr.
func NewManager(addr string, envr env.Full, node env.Node, tr transport.Transport) *Manager {
	m := &Manager{
		addr:              addr,
		envr:              envr,
		node:              node,
		tr:                tr,
		retr:              resil.NewRetrier(),
		PingInterval:      5 * time.Millisecond,
		ReplicationFactor: 1,
		pmap:              &PartitionMap{Epoch: 1},
		dead:              make(map[string]bool),
		misses:            make(map[string]int),
		probing:           make(map[string]bool),
		conns:             transport.NewConnSet(tr, node),
	}
	m.mu.SetName("store.Manager.mu")
	return m
}

// Addr returns the manager's serving address.
func (m *Manager) Addr() string { return m.addr }

// Node returns the manager's execution node. Drivers (tests, the embedded
// API) spawn migration-control activities on it so control RPCs originate
// from the management node in both environments.
func (m *Manager) Node() env.Node { return m.node }

// Failovers returns how many node fail-overs the manager has executed.
func (m *Manager) Failovers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failovers
}

// Recoveries returns how many log-based partition recoveries succeeded.
func (m *Manager) Recoveries() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recoveries
}

// Map returns a copy of the current partition map.
func (m *Manager) Map() *PartitionMap {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pmap.Clone()
}

// owner returns the master and the replicas (appended to buf) of the
// partition owning key, read under the lock instead of from a copy of the map.
func (m *Manager) owner(key []byte, buf []string) (master string, replicas []string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p, ok := m.pmap.LookupKey(key)
	if !ok {
		return "", nil, false
	}
	return p.Master, append(buf, p.Replicas...), true
}

// SetMap installs the initial partition map (cluster bootstrap).
func (m *Manager) SetMap(pm *PartitionMap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pmap = pm.Clone()
}

// AddSpare registers a standby storage node used to restore the replication
// factor after failures.
func (m *Manager) AddSpare(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.spares = append(m.spares, addr)
}

// Start registers the lookup-service handler and launches the failure
// detector.
func (m *Manager) Start() error {
	if err := m.tr.Listen(m.addr, m.node, m.handle); err != nil {
		return err
	}
	m.node.Go("failure-detector", m.monitor)
	return nil
}

// Stop halts the failure detector loop.
func (m *Manager) Stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
}

func (m *Manager) handle(ctx env.Ctx, raw []byte) []byte {
	if wire.PeekKind(raw) == wire.KindPing {
		return []byte{byte(wire.KindPong)}
	}
	if wire.PeekKind(raw) == wire.KindStatsExtReq {
		return m.handleStatsExt(ctx)
	}
	r := wire.NewReader(raw)
	if wire.Kind(r.Byte()) != wire.KindMetaReq {
		return encodeMetaAck(wire.StatusError)
	}
	switch metaSub(r.Byte()) {
	case metaGetMap:
		m.mu.Lock()
		pm := m.pmap.Clone()
		m.mu.Unlock()
		return encodeMetaMap(pm)
	}
	return encodeMetaAck(wire.StatusError)
}

// handleStatsExt answers the extended stats request with a cluster-wide
// aggregation: the manager fans the request out to every live storage node
// and merges the answers, so one query paints the whole heatmap. A node
// that cannot be reached is simply absent from the merged view — telemetry
// must not block on a dying SN.
func (m *Manager) handleStatsExt(ctx env.Ctx) []byte {
	return m.collectExt(ctx).Encode()
}

// collectExt fans the extended-stats request out to every live node, merges
// the answers, and overlays the manager's own migration telemetry. Also the
// placement controller's load-view source.
func (m *Manager) collectExt(ctx env.Ctx) *wire.StatsExt {
	m.mu.Lock()
	targets := m.liveNodesLocked()
	m.mu.Unlock()

	agg := &wire.StatsExt{Node: m.addr}
	req := wire.EncodeStatsExtReq()
	for _, addr := range targets {
		raw, err := m.metaCall(ctx, addr, req)
		if err != nil {
			continue
		}
		ext, err := wire.DecodeStatsExt(raw)
		if err != nil {
			continue
		}
		agg.Merge(ext)
	}
	m.fillMigStats(agg)
	agg.SortRows()
	return agg
}

// monitor is the failure-detector loop.
func (m *Manager) monitor(ctx env.Ctx) {
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		targets := m.liveNodesLocked()
		m.mu.Unlock()

		for _, addr := range targets {
			alive := m.retr.Ping(ctx, m.conns, addr)
			m.mu.Lock()
			if alive {
				m.misses[addr] = 0
				m.mu.Unlock()
				continue
			}
			m.misses[addr]++
			failed := m.misses[addr] >= FailAfter && !m.dead[addr]
			m.mu.Unlock()
			if failed {
				m.failover(ctx, addr)
			}
		}
		m.probeDead()
		ctx.Sleep(m.PingInterval)
	}
}

// probeDead launches one async rejoin probe per dead node without one in
// flight. A node that answers again — a healed partition or a restarted
// process that finished local recovery — rejoins as an empty placement
// target: it is pushed the current map first, so a node that kept stale
// state across a network partition demotes itself before it can serve a
// single stale read, and the placement controller may then move ranges back
// onto it.
func (m *Manager) probeDead() {
	m.mu.Lock()
	var probes []string
	if !m.stopped {
		for _, addr := range det.Keys(m.dead) {
			if m.dead[addr] && !m.probing[addr] {
				m.probing[addr] = true
				probes = append(probes, addr)
			}
		}
	}
	m.mu.Unlock()
	for _, addr := range probes {
		addr := addr
		m.node.Go("rejoin-probe", func(ctx env.Ctx) {
			alive := m.retr.Ping(ctx, m.conns, addr)
			m.mu.Lock()
			delete(m.probing, addr)
			if !alive || !m.dead[addr] || m.stopped {
				m.mu.Unlock()
				return
			}
			delete(m.dead, addr)
			m.misses[addr] = 0
			if m.known == nil {
				m.known = make(map[string]bool)
			}
			m.known[addr] = true
			pm := m.pmap.Clone()
			m.mu.Unlock()
			// Best-effort: a rejoined node that misses the push answers from
			// an empty or older map and is demoted by the next configure.
			_, _ = m.metaCall(ctx, addr, encodeMetaConfigure(pm))
		})
	}
}

// liveNodesLocked lists distinct storage addresses that are not known dead:
// every address in the map plus nodes registered via AddNode (which may not
// master anything yet). Caller holds m.mu.
func (m *Manager) liveNodesLocked() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a string) {
		if a != "" && !seen[a] && !m.dead[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for i := range m.pmap.Partitions {
		add(m.pmap.Partitions[i].Master)
		for _, r := range m.pmap.Partitions[i].Replicas {
			add(r)
		}
	}
	for _, a := range det.Keys(m.known) {
		add(a)
	}
	return out
}

// failover removes deadAddr from the map, promoting replicas to master
// where needed, pushes the new configuration, and restores the replication
// factor from spares.
func (m *Manager) failover(ctx env.Ctx, deadAddr string) {
	type transfer struct {
		master string
		pid    uint64
		target string
	}
	var transfers []transfer

	m.mu.Lock()
	if m.dead[deadAddr] {
		m.mu.Unlock()
		return
	}
	m.dead[deadAddr] = true
	m.failovers++
	pm := m.pmap
	var headless []uint64
	for i := range pm.Partitions {
		p := &pm.Partitions[i]
		// Drop the dead node from the replica list.
		reps := p.Replicas[:0]
		for _, r := range p.Replicas {
			if r != deadAddr {
				reps = append(reps, r)
			}
		}
		p.Replicas = reps
		if p.Master == deadAddr {
			if len(p.Replicas) == 0 {
				// No replica to promote. With a Recoverer the partition
				// is rebuilt below from the dead node's durable log;
				// without one this is data loss and the partition stays
				// headless (clients see Unavailable).
				p.Master = ""
				if m.Recoverer != nil {
					headless = append(headless, p.ID)
				}
				continue
			}
			p.Master = p.Replicas[0]
			p.Replicas = p.Replicas[1:]
		}
		// Restore the replication factor from spares.
		for 1+len(p.Replicas) < m.ReplicationFactor && len(m.spares) > 0 {
			spare := m.spares[0]
			m.spares = m.spares[1:]
			p.Replicas = append(p.Replicas, spare)
			transfers = append(transfers, transfer{master: p.Master, pid: p.ID, target: spare})
		}
	}
	survivors := m.liveNodesLocked()
	m.mu.Unlock()

	// Scatter-gather recovery (RamCloud-style): partition the dead node's
	// WAL segments and checkpoint chunks across the survivors, replay in
	// parallel, and install the recovered masters before publishing the new
	// map. Blocking here is deliberate — the partitions are unavailable
	// either way until their data is reconstructed.
	if len(headless) > 0 {
		assigned, err := m.Recoverer.RecoverSN(ctx, deadAddr, headless, survivors)
		if err == nil {
			m.mu.Lock()
			for i := range pm.Partitions {
				p := &pm.Partitions[i]
				if a, ok := assigned[p.ID]; ok && p.Master == "" {
					p.Master = a
					m.recoveries++
				}
			}
			m.mu.Unlock()
		}
	}

	m.mu.Lock()
	pm.Epoch++
	newMap := pm.Clone()
	targets := m.liveNodesLocked()
	m.mu.Unlock()

	// Push the new configuration to every surviving node. Best-effort with
	// ClassMeta retries: a node the push cannot reach is on its way to being
	// declared dead itself, and clients refetch the map on Unavailable.
	cfg := encodeMetaConfigure(newMap)
	for _, addr := range targets {
		_, _ = m.metaCall(ctx, addr, cfg)
	}
	// Backfill new replicas from their masters. Apply-if-newer on the
	// replica makes this safe concurrently with live writes.
	for _, tr := range transfers {
		_, _ = m.metaCall(ctx, tr.master, encodeMetaTransfer(tr.pid, tr.target))
	}
	if m.OnFailover != nil {
		m.OnFailover(deadAddr)
	}
}
