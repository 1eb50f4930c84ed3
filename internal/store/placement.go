package store

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"tell/internal/det"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/wire"
)

// Manager-side live migration and autonomic placement. The manager drives
// the three-phase protocol (see migrate.go) against the source and target
// nodes, journals every phase transition on a durable backend so a manager
// crash at any boundary resolves to exactly one owner, and has a placement
// controller that consumes the cluster heat map and issues one split or
// migrate plan per pass under a deterministic policy (H2O-style placement
// over the paper's shared-data elasticity claim), run on demand.

// migJournalEntry is one durable record of a migration's progress. The
// cutover record carries the full new partition map: after it is durable
// the migration completes even across a manager crash (ResolveJournal
// republishes the map); before it, recovery aborts and the source keeps
// the range.
type migJournalEntry struct {
	Phase string
	Pid   uint64
	Src   string
	Dst   string
	// Fence is the commit-manager snapshot boundary sampled at cutover
	// (diagnostic: SI safety comes from the write fence + stamp floors).
	Fence uint64
	// Map is the encoded post-cutover partition map (cutover phase only).
	Map []byte
}

func migJournalKey(pid uint64) string { return fmt.Sprintf("mgmt/mig/%020d", pid) }

func (e *migJournalEntry) encode() []byte {
	w := wire.NewWriter(64 + len(e.Map))
	w.String(e.Phase)
	w.Uvarint(e.Pid)
	w.String(e.Src)
	w.String(e.Dst)
	w.Uvarint(e.Fence)
	w.BytesN(e.Map)
	return w.Bytes()
}

func decodeMigJournalEntry(b []byte) (*migJournalEntry, error) {
	r := wire.NewReader(b)
	e := &migJournalEntry{Phase: r.String(), Pid: r.Uvarint(), Src: r.String(), Dst: r.String(), Fence: r.Uvarint()}
	e.Map = r.BytesN()
	return e, r.Close()
}

// SetJournal attaches the manager's durable migration journal. Without one
// migrations still run, but a manager crash mid-migration cannot be
// resolved from disk.
func (m *Manager) SetJournal(b durable.Backend) {
	m.mu.Lock()
	m.journal = b
	m.mu.Unlock()
}

func (m *Manager) journalPut(ctx env.Ctx, e *migJournalEntry) error {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	return j.Put(ctx, migJournalKey(e.Pid), e.encode())
}

// readbackCutover disambiguates the commit-point write after an errored
// Put: it returns (entry, true) when a durable cutover record exists for
// the range, (nil, true) when the journal definitively holds no cutover
// for it, and (nil, false) when the journal cannot be read at all — the
// outcome is then unknowable and only ResolveJournal may decide it.
func (m *Manager) readbackCutover(ctx env.Ctx, pid uint64) (*migJournalEntry, bool) {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil, true
	}
	raw, err := j.Get(ctx, migJournalKey(pid))
	if errors.Is(err, durable.ErrNotExist) {
		return nil, true
	}
	if err != nil {
		return nil, false
	}
	e, err := decodeMigJournalEntry(raw)
	if err != nil {
		// Puts are atomic, so a durable record never decodes dirty; treat
		// the impossible as unknowable rather than presuming an outcome.
		return nil, false
	}
	if e.Phase == migPhaseCutover {
		return e, true
	}
	return nil, true
}

// completeCutover finishes a durably committed cutover: install the
// journaled map (epoch-guarded), publish it target-first, release the
// source's fence, and mark the journal done. Shared by journal recovery
// and the coordinator's ambiguous-commit readback path. The terminal marks
// are best-effort — the cutover record alone decides ownership, and
// re-resolving an unmarked record is an idempotent republish.
func (m *Manager) completeCutover(ctx env.Ctx, e *migJournalEntry) error {
	pm, err := DecodePartitionMap(e.Map)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if pm.Epoch > m.pmap.Epoch {
		m.pmap = pm.Clone()
	}
	m.mu.Unlock()
	m.publishMap(ctx, pm, e.Dst)
	//lint:allow errdiscard best-effort fence clear on a completed cutover
	m.migCall(ctx, e.Src, metaMigFinish, e.Pid, "", 0)
	//lint:allow errdiscard terminal journal mark; the cutover record already committed ownership
	m.journalPut(ctx, &migJournalEntry{Phase: migPhaseDone, Pid: e.Pid, Src: e.Src, Dst: e.Dst, Fence: e.Fence})
	m.setMig(e.Pid, migPhaseDone, e.Src, e.Dst, 0, 0)
	return nil
}

// AddNode registers a storage node with the manager before it holds any
// ranges: the failure detector starts probing it and the placement
// controller counts it as a (cold, empty) migration target. This is the
// scale-out entry point — a fresh node joins empty and the rebalancer
// moves ranges onto it.
func (m *Manager) AddNode(addr string) {
	m.mu.Lock()
	if m.known == nil {
		m.known = make(map[string]bool)
	}
	m.known[addr] = true
	m.mu.Unlock()
}

// setMigLocked updates the manager's authoritative migration telemetry row.
// Caller holds m.mu.
func (m *Manager) setMigLocked(pid uint64, phase, src, dst string, addBytes, addChunks int64) {
	if m.migs == nil {
		m.migs = make(map[uint64]*wire.MigrationStat)
	}
	g := m.migs[pid]
	if g == nil {
		g = &wire.MigrationStat{Node: m.addr, Range: pid}
		m.migs[pid] = g
	}
	if phase != "" {
		g.Phase = phase
	}
	if src != "" {
		g.Source = src
	}
	if dst != "" {
		g.Target = dst
	}
	g.BytesMoved += addBytes
	g.Chunks += addChunks
}

func (m *Manager) setMig(pid uint64, phase, src, dst string, addBytes, addChunks int64) {
	m.mu.Lock()
	m.setMigLocked(pid, phase, src, dst, addBytes, addChunks)
	m.mu.Unlock()
}

// fillMigStats appends the manager's migration rows to a stats snapshot.
func (m *Manager) fillMigStats(ext *wire.StatsExt) {
	m.mu.Lock()
	for _, pid := range det.Keys(m.migs) {
		ext.Migr = append(ext.Migr, *m.migs[pid])
	}
	m.mu.Unlock()
}

// logSchedule appends one line to the controller's decision log. The log
// carries virtual timestamps only, so two same-seed runs produce
// byte-identical schedules (the determinism contract of the rebalancing
// experiment).
func (m *Manager) logSchedule(now time.Duration, format string, args ...interface{}) {
	m.mu.Lock()
	m.schedule = append(m.schedule, fmt.Sprintf("%dns %s", int64(now), fmt.Sprintf(format, args...)))
	m.mu.Unlock()
}

// ScheduleLog returns the placement controller's decision log: one line per
// split/migrate action, virtual-timestamped.
func (m *Manager) ScheduleLog() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.schedule...)
}

// metaCall sends one control request with meta-class retries.
func (m *Manager) metaCall(ctx env.Ctx, addr string, req []byte) ([]byte, error) {
	conn, err := m.conns.Get(addr)
	if err != nil {
		return nil, err
	}
	raw, _, err := m.retr.Call(ctx, resil.ClassMeta, addr, conn, req, nil)
	return raw, err
}

// migCall sends one migration control request and decodes the ack.
func (m *Manager) migCall(ctx env.Ctx, addr string, sub metaSub, pid uint64, peer string, floor uint64) (migAck, error) {
	raw, err := m.metaCall(ctx, addr, encodeMigReq(sub, pid, peer, floor))
	if err != nil {
		return migAck{}, err
	}
	ack, err := decodeMigAck(raw)
	if err != nil {
		return migAck{}, err
	}
	if ack.Status != wire.StatusOK {
		return ack, fmt.Errorf("store: migration rpc to %s refused: %v", addr, ack.Status)
	}
	return ack, nil
}

// ErrMigrationInFlight: the range already has an active migration.
var ErrMigrationInFlight = errors.New("store: migration already in flight for range")

// MigratePartition live-migrates range pid to dst through the three-phase
// protocol: bulk copy, delta catch-up rounds, fenced cutover. It blocks
// until the migration commits or aborts; on abort the source keeps the
// range and the fence is cleared. Safe to call while the range serves
// traffic — that is the point.
func (m *Manager) MigratePartition(ctx env.Ctx, pid uint64, dst string) error {
	m.mu.Lock()
	var src string
	for i := range m.pmap.Partitions {
		if m.pmap.Partitions[i].ID == pid {
			src = m.pmap.Partitions[i].Master
		}
	}
	switch {
	case src == "":
		m.mu.Unlock()
		return fmt.Errorf("store: no master for range %d", pid)
	case src == dst:
		m.mu.Unlock()
		return fmt.Errorf("store: range %d already mastered by %s", pid, dst)
	case m.dead[src] || m.dead[dst]:
		m.mu.Unlock()
		return fmt.Errorf("store: migration endpoint dead (%s -> %s)", src, dst)
	case m.inflight[pid]:
		m.mu.Unlock()
		return ErrMigrationInFlight
	}
	if m.inflight == nil {
		m.inflight = make(map[uint64]bool)
	}
	m.inflight[pid] = true
	m.setMigLocked(pid, migPhaseCopy, src, dst, 0, 0)
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.inflight, pid)
		m.mu.Unlock()
	}()

	abort := func(cause error) error {
		// Clear the fence best-effort (the source may be the thing that
		// died), then durably mark the migration aborted: recovery resolves
		// the range to its current owner, the source.
		//lint:allow errdiscard best-effort fence clear; a dead source has no fence to clear
		m.migCall(ctx, src, metaMigFinish, pid, "", 1)
		//lint:allow errdiscard the abort mark is advisory; a missing journal resolves pre-cutover entries to abort anyway
		m.journalPut(ctx, &migJournalEntry{Phase: migPhaseAborted, Pid: pid, Src: src, Dst: dst})
		m.setMig(pid, migPhaseAborted, "", "", 0, 0)
		return fmt.Errorf("store: migration of range %d aborted: %w", pid, cause)
	}

	// A prior coordinator may have left an undecided commit record for this
	// range (its cutover write errored with the outcome unknown). Never
	// overwrite a durable cutover with a fresh intent — finish it instead.
	if e, known := m.readbackCutover(ctx, pid); known && e != nil {
		if err := m.completeCutover(ctx, e); err != nil {
			return err
		}
		return fmt.Errorf("store: range %d had a committed but unresolved cutover to %s; completed it", pid, e.Dst)
	}

	// Phase 1: bulk copy, throttled, under live traffic.
	if err := m.journalPut(ctx, &migJournalEntry{Phase: migPhaseCopy, Pid: pid, Src: src, Dst: dst}); err != nil {
		return err
	}
	ack, err := m.migCall(ctx, src, metaMigCopy, pid, dst, 0)
	if err != nil {
		return abort(err)
	}
	m.setMig(pid, "", "", "", int64(ack.Bytes), chunksOf(ack.Count))
	floor := ack.Floor

	// Phase 2: delta catch-up until the window settles.
	for round := 0; round < migDeltaRounds; round++ {
		if err := m.journalPut(ctx, &migJournalEntry{Phase: migPhaseDelta, Pid: pid, Src: src, Dst: dst}); err != nil {
			return abort(err)
		}
		m.setMig(pid, migPhaseDelta, "", "", 0, 0)
		d, err := m.migCall(ctx, src, metaMigDelta, pid, dst, floor)
		if err != nil {
			return abort(err)
		}
		m.setMig(pid, "", "", "", int64(d.Bytes), chunksOf(d.Count))
		floor = d.Floor
		if d.Count <= migDeltaSettle {
			break
		}
	}

	// Phase 3: fence + final delta, then the cutover commit.
	if err := m.journalPut(ctx, &migJournalEntry{Phase: migPhaseFence, Pid: pid, Src: src, Dst: dst}); err != nil {
		return abort(err)
	}
	m.setMig(pid, migPhaseFence, "", "", 0, 0)
	f, err := m.migCall(ctx, src, metaMigFence, pid, dst, floor)
	if err != nil {
		return abort(err)
	}
	m.setMig(pid, "", "", "", int64(f.Bytes), chunksOf(f.Count))

	// Sample the commit-manager snapshot boundary the cutover serializes
	// against; recorded in the journal for diagnosis.
	var fence uint64
	if m.Fence != nil {
		fence = m.Fence(ctx)
	}
	if _, err := m.migCall(ctx, dst, metaMigAdopt, pid, src, 0); err != nil {
		return abort(err)
	}

	// Cutover: build the new map from the current one, journal it, install
	// it only if no concurrent reconfiguration (failover) won the race. The
	// journal write is THE commit point — after it, recovery republishes
	// the new map; before it, recovery aborts. applyMap/SetMap are
	// epoch-guarded, so a cutover record that lost a race resolves to a
	// no-op republish.
	var newMap *PartitionMap
	for attempt := 0; attempt < 3; attempt++ {
		m.mu.Lock()
		var pp *Partition
		for i := range m.pmap.Partitions {
			if m.pmap.Partitions[i].ID == pid {
				pp = &m.pmap.Partitions[i]
			}
		}
		if pp == nil || pp.Master != src || m.dead[src] || m.dead[dst] {
			m.mu.Unlock()
			return abort(errors.New("store: range reconfigured during migration"))
		}
		baseEpoch := m.pmap.Epoch
		cand := m.pmap.Clone()
		for i := range cand.Partitions {
			p := &cand.Partitions[i]
			if p.ID != pid {
				continue
			}
			p.Master = dst
			// The source keeps a complete copy through the fence: keep it in
			// the replica set in the target's old slot, preserving RF without
			// a backfill. If the target was not a replica the set is already
			// full — the source's copy simply goes cold.
			for j, r := range p.Replicas {
				if r == dst {
					p.Replicas[j] = src
				}
			}
		}
		cand.Epoch = baseEpoch + 1
		m.mu.Unlock()

		if err := m.journalPut(ctx, &migJournalEntry{
			Phase: migPhaseCutover, Pid: pid, Src: src, Dst: dst, Fence: fence, Map: cand.Encode(),
		}); err != nil {
			// The commit-point write is the protocol's one ambiguous
			// boundary: an errored Put may still be durable (crash between
			// write and ack). Presuming abort would clear the fence and
			// resume the source while the journal durably says cutover — a
			// later ResolveJournal would then flip ownership to a target
			// missing the source's post-abort writes. Read back to decide.
			switch e, known := m.readbackCutover(ctx, pid); {
			case e != nil:
				// The record landed: committed. Finish exactly as journal
				// recovery would (the durable map, not this attempt's).
				return m.completeCutover(ctx, e)
			case known:
				// Definitively absent — pre-cutover, safe to presume abort.
				return abort(err)
			default:
				// Journal unreachable: the outcome is undecided and only
				// the journal may decide it. Leave the fence up so the
				// source takes no further writes on the range until
				// ResolveJournal settles ownership one way or the other.
				m.setMig(pid, migPhaseFence, "", "", 0, 0)
				return fmt.Errorf("store: migration of range %d undecided at cutover (journal unavailable): %w", pid, err)
			}
		}
		if m.OnCutoverJournaled != nil && !m.OnCutoverJournaled(pid) {
			// Crash emulation for recovery tests: the coordinator dies right
			// after the commit point. Nothing is installed or published and
			// the fence stays up — a recovering manager must finish the
			// cutover from the journal.
			return errors.New("store: coordinator abandoned at cutover commit point")
		}
		m.mu.Lock()
		if m.pmap.Epoch == baseEpoch {
			m.pmap = cand.Clone()
			newMap = cand
			m.mu.Unlock()
			break
		}
		// A failover advanced the map while we journaled; rebuild against
		// the fresh map (the superseded cutover record is overwritten).
		m.mu.Unlock()
	}
	if newMap == nil {
		return abort(errors.New("store: lost cutover race to concurrent reconfiguration"))
	}
	m.setMig(pid, migPhaseCutover, "", "", 0, 0)

	m.publishMap(ctx, newMap, dst)

	// Release the source's fence. Best-effort: a source that misses this
	// also received the new map (or will refetch it) and answers
	// WrongPartition for the range either way.
	//lint:allow errdiscard best-effort fence clear after a committed cutover
	m.migCall(ctx, src, metaMigFinish, pid, "", 0)
	//lint:allow errdiscard terminal journal mark; cutover already committed ownership
	m.journalPut(ctx, &migJournalEntry{Phase: migPhaseDone, Pid: pid, Src: src, Dst: dst, Fence: fence})
	m.setMig(pid, migPhaseDone, "", "", 0, 0)
	return nil
}

// publishMap pushes a configuration to every node in the map, the new
// master first so the range is servable the instant clients learn the new
// epoch. Best-effort with meta-class retries, like failover pushes.
func (m *Manager) publishMap(ctx env.Ctx, pm *PartitionMap, first string) {
	cfg := encodeMetaConfigure(pm)
	pushed := map[string]bool{}
	push := func(addr string) {
		if addr == "" || pushed[addr] {
			return
		}
		pushed[addr] = true
		//lint:allow errdiscard best-effort config push; stragglers refetch on WrongPartition
		m.metaCall(ctx, addr, cfg)
	}
	push(first)
	m.mu.Lock()
	targets := m.liveNodesLocked()
	m.mu.Unlock()
	for _, addr := range targets {
		push(addr)
	}
}

// ResolveJournal replays the migration journal after a manager restart:
// entries short of the cutover abort (clear the fence, source keeps the
// range); cutover entries complete (republish the journaled map, which
// epoch-guards make a no-op if the cluster moved on). Call after SetMap
// and SetJournal, before Start.
func (m *Manager) ResolveJournal(ctx env.Ctx) error {
	m.mu.Lock()
	j := m.journal
	m.mu.Unlock()
	if j == nil {
		return nil
	}
	names, err := j.List(ctx, "mgmt/mig/")
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := j.Get(ctx, name)
		if err != nil {
			return err
		}
		e, err := decodeMigJournalEntry(raw)
		if err != nil {
			return err
		}
		switch e.Phase {
		case migPhaseDone, migPhaseAborted:
			continue
		case migPhaseCutover:
			if err := m.completeCutover(ctx, e); err != nil {
				return err
			}
		default:
			// intent/copy/delta/fence: the cutover never committed — the
			// source owns the range. Clear its fence and mark the abort.
			//lint:allow errdiscard best-effort fence clear; a crashed source lost its (volatile) fence anyway
			m.migCall(ctx, e.Src, metaMigFinish, e.Pid, "", 1)
			if err := m.journalPut(ctx, &migJournalEntry{Phase: migPhaseAborted, Pid: e.Pid, Src: e.Src, Dst: e.Dst}); err != nil {
				return err
			}
			m.setMig(e.Pid, migPhaseAborted, e.Src, e.Dst, 0, 0)
		}
	}
	return nil
}

// The placement controller's calibrated policy. All decisions are pure
// functions of (heat snapshot, partition map, policy), evaluated on the
// virtual clock — no wall time — so schedules are deterministic per seed.
const (
	// RebalanceInterval is the pause between forced controller passes
	// (Cluster.Rebalance), so live traffic lands between them.
	RebalanceInterval = 250 * time.Millisecond
	// rebalanceRatio triggers planning when hottest-node load exceeds
	// rebalanceRatio times coldest-node load.
	rebalanceRatio = 1.5
	// heatMinOps ignores imbalance below this absolute recent-ops level
	// in a heat-based view (an idle cluster is trivially "imbalanced").
	heatMinOps = 256
	// rebalanceCooldown is how many planning passes a just-migrated range
	// sits out before it may migrate again. When residual node loads are
	// close, heat noise flips the hot/cold inequality from pass to pass and
	// the same range ping-pongs between owners; the cooldown forces the
	// controller to either find a different useful action or declare
	// convergence at the achievable granularity.
	rebalanceCooldown = 4
)

// nodeLoad is one node's placement-relevant load: recent ops attributed to
// the ranges it masters.
type nodeLoad struct {
	addr   string
	ops    int64
	ranges []rangeLoad // sorted by pid
}

type rangeLoad struct {
	pid uint64
	ops int64
}

// loads builds the per-node load view the planner works from: heat-based
// when telemetry flows, partition-count-based otherwise (each mastered
// range counts 1). Heat is the per-(node, range) op count since the
// controller's PREVIOUS pass — not the telemetry retention window — so a
// range's heat follows it to its new owner as soon as traffic does, and a
// just-split or just-moved range never keeps planning passes churning on
// its stale history. Nodes registered via AddNode appear even when they
// master nothing — that is exactly what makes a fresh node the coldest
// target. The second return reports whether the view is heat-based; the
// count-based fallback needs a different MinOps floor (every range scores
// exactly 1).
func (m *Manager) loads(ctx env.Ctx) ([]nodeLoad, bool) {
	ext := m.collectExt(ctx)
	heat := make(map[string]map[uint64]int64)
	m.mu.Lock()
	if m.heatPrev == nil {
		m.heatPrev = make(map[string]map[uint64]int64)
	}
	for i := range ext.Heat {
		h := &ext.Heat[i]
		total := h.Reads + h.Writes
		prev := m.heatPrev[h.Node][h.Range]
		if total < prev {
			prev = 0 // the node restarted and its counters reset
		}
		if m.heatPrev[h.Node] == nil {
			m.heatPrev[h.Node] = make(map[uint64]int64)
		}
		m.heatPrev[h.Node][h.Range] = total
		if heat[h.Node] == nil {
			heat[h.Node] = make(map[uint64]int64)
		}
		heat[h.Node][h.Range] += total - prev
	}
	m.mu.Unlock()

	m.mu.Lock()
	nodes := m.liveNodesLocked()
	type pa struct {
		pid    uint64
		master string
	}
	parts := make([]pa, 0, len(m.pmap.Partitions))
	for i := range m.pmap.Partitions {
		if mast := m.pmap.Partitions[i].Master; mast != "" && !m.dead[mast] {
			parts = append(parts, pa{pid: m.pmap.Partitions[i].ID, master: mast})
		}
	}
	m.mu.Unlock()
	sort.Slice(parts, func(i, j int) bool { return parts[i].pid < parts[j].pid })

	anyHeat := false
	for _, p := range parts {
		if heat[p.master][p.pid] > 0 {
			anyHeat = true
			break
		}
	}
	byNode := make(map[string]*nodeLoad)
	for _, addr := range nodes {
		byNode[addr] = &nodeLoad{addr: addr}
	}
	for _, p := range parts {
		nl := byNode[p.master]
		if nl == nil {
			nl = &nodeLoad{addr: p.master}
			byNode[p.master] = nl
		}
		ops := int64(1)
		if anyHeat {
			ops = heat[p.master][p.pid]
		}
		nl.ops += ops
		nl.ranges = append(nl.ranges, rangeLoad{pid: p.pid, ops: ops})
	}
	out := make([]nodeLoad, 0, len(byNode))
	for _, addr := range det.Keys(byNode) {
		out = append(out, *byNode[addr])
	}
	return out, anyHeat
}

// migPlan is one planned placement action.
type migPlan struct {
	split bool
	pid   uint64
	src   string
	dst   string
}

// plan derives the next placement action from a load view, or nil when the
// cluster is balanced (or nothing helpful can move). Deterministic: ties
// break toward lexicographically smaller addresses and lower range ids.
// It plans nothing while the hottest node has fewer than minOps recent ops.
func (m *Manager) plan(loads []nodeLoad, minOps int64) *migPlan {
	if len(loads) < 2 {
		return nil
	}
	hot, cold := &loads[0], &loads[0]
	for i := range loads {
		nl := &loads[i]
		if nl.ops > hot.ops || (nl.ops == hot.ops && nl.addr < hot.addr) {
			hot = nl
		}
		if nl.ops < cold.ops || (nl.ops == cold.ops && nl.addr < cold.addr) {
			cold = nl
		}
	}
	var total int64
	for i := range loads {
		total += loads[i].ops
	}
	m.mu.Lock()
	m.hotShare = 0
	if total > 0 {
		m.hotShare = float64(hot.ops) / float64(total)
	}
	m.mu.Unlock()
	if hot.addr == cold.addr || hot.ops < minOps {
		return nil
	}
	if cold.ops > 0 && float64(hot.ops) <= rebalanceRatio*float64(cold.ops) {
		return nil
	}
	gap := hot.ops - cold.ops
	// Move the range that best levels the pair: post-move imbalance is
	// |gap - 2·ops|, so the ideal move carries gap/2. Only ranges with
	// 0 < ops < gap improve anything at all.
	m.mu.Lock()
	m.planPass++
	inflight := make(map[uint64]bool, len(m.inflight))
	for pid := range m.inflight {
		inflight[pid] = true
	}
	cooling := make(map[uint64]bool, len(m.cooled))
	for pid, pass := range m.cooled {
		if m.planPass-pass <= rebalanceCooldown {
			cooling[pid] = true
		}
	}
	atom := make(map[uint64]bool) // single-point spans that cannot split
	for i := range m.pmap.Partitions {
		if p := &m.pmap.Partitions[i]; p.LoHash >= p.HiHash {
			atom[p.ID] = true
		}
	}
	m.mu.Unlock()
	var best *rangeLoad
	var bestDist int64 = 1<<62 - 1
	for i := range hot.ranges {
		r := &hot.ranges[i]
		if inflight[r.pid] || cooling[r.pid] || r.ops <= 0 || r.ops >= gap {
			continue
		}
		dist := gap - 2*r.ops
		if dist < 0 {
			dist = -dist
		}
		if dist < bestDist || (dist == bestDist && best != nil && r.pid < best.pid) {
			best, bestDist = r, dist
		}
	}
	if best != nil {
		return &migPlan{pid: best.pid, src: hot.addr, dst: cold.addr}
	}
	// No movable range: one range carries (at least) the whole gap. Split
	// the hottest range at its hash midpoint so the next tick can move one
	// half — the classic hot-range escape hatch.
	var hottest *rangeLoad
	for i := range hot.ranges {
		r := &hot.ranges[i]
		if inflight[r.pid] || atom[r.pid] {
			continue
		}
		if hottest == nil || r.ops > hottest.ops || (r.ops == hottest.ops && r.pid < hottest.pid) {
			hottest = r
		}
	}
	if hottest == nil || hottest.ops <= 0 {
		return nil
	}
	return &migPlan{split: true, pid: hottest.pid, src: hot.addr}
}

// ErrUnsplittable reports a split of a range whose hash span is already a
// single point. The planner skips such ranges; hitting this directly means
// the map changed between planning and execution.
var ErrUnsplittable = errors.New("hash span is a single point; cannot split further")

// splitMedian asks pid's master for the median live-key hash — the
// data-aware split point. ok is false when the master is unknown,
// unreachable, or reports that no point separates the range's keys (zero
// or one distinct hash).
func (m *Manager) splitMedian(ctx env.Ctx, pid uint64) (uint64, bool) {
	m.mu.Lock()
	var master string
	for i := range m.pmap.Partitions {
		if p := &m.pmap.Partitions[i]; p.ID == pid {
			master = p.Master
		}
	}
	m.mu.Unlock()
	if master == "" {
		return 0, false
	}
	ack, err := m.migCall(ctx, master, metaMigMedian, pid, "", 0)
	if err != nil || ack.Status != wire.StatusOK {
		return 0, false
	}
	return ack.Floor, true
}

func (m *Manager) splitPartition(ctx env.Ctx, pid, median uint64, haveMedian bool) (uint64, error) {
	m.mu.Lock()
	var pp *Partition
	var maxID uint64
	for i := range m.pmap.Partitions {
		p := &m.pmap.Partitions[i]
		if p.ID > maxID {
			maxID = p.ID
		}
		if p.ID == pid {
			pp = p
		}
	}
	if pp == nil {
		m.mu.Unlock()
		return 0, fmt.Errorf("store: no such range %d", pid)
	}
	if pp.LoHash >= pp.HiHash {
		m.mu.Unlock()
		return 0, fmt.Errorf("store: range %d: %w", pid, ErrUnsplittable)
	}
	mid := pp.LoHash + (pp.HiHash-pp.LoHash)/2
	if haveMedian && median >= pp.LoHash && median < pp.HiHash {
		mid = median
	}
	nu := Partition{
		ID:       maxID + 1,
		LoHash:   mid + 1,
		HiHash:   pp.HiHash,
		Master:   pp.Master,
		Replicas: append([]string(nil), pp.Replicas...),
	}
	pp.HiHash = mid
	m.pmap.Partitions = append(m.pmap.Partitions, nu)
	m.pmap.Epoch++
	newMap := m.pmap.Clone()
	m.mu.Unlock()
	m.publishMap(ctx, newMap, nu.Master)
	return nu.ID, nil
}

// HotShare reports the hottest node's fraction of total ops at the latest
// planning pass (0 before any pass). Rebalance loops watch it to detect
// when further actions stop improving the balance.
func (m *Manager) HotShare() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hotShare
}

// RebalanceOnce runs one controller pass: plan one action from the current
// load view and execute it. Returns whether an action ran. Cluster.Rebalance
// loops this until the view is balanced; nothing runs it in the background.
func (m *Manager) RebalanceOnce(ctx env.Ctx) (bool, error) {
	view, heatBased := m.loads(ctx)
	minOps := int64(heatMinOps)
	if !heatBased {
		// Count-based view: every range scores 1 op, so the heat noise
		// floor would veto every plan. A forced pass balances range counts
		// even on an idle cluster.
		minOps = 1
	}
	p := m.plan(view, minOps)
	if p == nil {
		return false, nil
	}
	if err := m.executePlan(ctx, p); err != nil {
		if errors.Is(err, ErrUnsplittable) {
			// The map moved under the plan; nothing useful ran.
			return false, nil
		}
		return true, err
	}
	return true, nil
}

func (m *Manager) executePlan(ctx env.Ctx, p *migPlan) error {
	if p.split {
		// A controller split exists to separate load; without a data split
		// point (the range's heat sits on a single key) a midpoint split
		// cannot move any ops — an isolated hot key is the terminal state.
		median, ok := m.splitMedian(ctx, p.pid)
		if !ok {
			return fmt.Errorf("store: range %d: %w", p.pid, ErrUnsplittable)
		}
		nu, err := m.splitPartition(ctx, p.pid, median, true)
		if err != nil {
			return err
		}
		m.logSchedule(ctx.Now(), "split p%d -> p%d on %s", p.pid, nu, p.src)
		return nil
	}
	m.logSchedule(ctx.Now(), "migrate p%d %s -> %s", p.pid, p.src, p.dst)
	m.mu.Lock()
	if m.cooled == nil {
		m.cooled = make(map[uint64]int)
	}
	m.cooled[p.pid] = m.planPass
	m.mu.Unlock()
	return m.MigratePartition(ctx, p.pid, p.dst)
}
