package chaos_test

import (
	"fmt"
	"testing"
	"time"

	"tell/internal/chaos"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/store"
	"tell/internal/transport"
)

// Migration chaos cells: a live range migration is in flight while a crash
// strikes one of the three parties (source master, target, coordinating
// manager). Whatever the boundary, the range must end on exactly one owner
// with zero SI anomalies and zero committed-data loss — the standard bank
// and TPC-C cell assertions apply unchanged on top of the per-cell checks.
//
// The copy phase is widened deterministically so the kill lands inside the
// protocol: the migrated partition is bulk-filled past one transfer chunk
// and the source's inter-chunk throttle is raised, giving a multi-
// millisecond copy window at a known virtual time.

// migKill names which party dies mid-migration.
type migKill int

const (
	killSource migKill = iota
	killTarget
	killManager
)

type migCell struct {
	name string
	kill migKill
}

func migCells() []migCell {
	return []migCell{
		{"kill-source-mid-migration", killSource},
		{"kill-target-mid-migration", killTarget},
		{"kill-manager-at-cutover", killManager},
	}
}

// migStart is when the coordinator begins the migration; crashes strike
// midway through the widened copy phase.
const migStart = 6 * time.Millisecond
const migCrashAt = migStart + 12*time.Millisecond

// migProbe observes one scripted migration from the outside: the
// coordinator's result, and (for the manager-kill cell) the recovery
// manager that resolved the orphaned journal.
type migProbe struct {
	pid      uint64
	src, dst string
	err      error
	done     bool
	recovery *store.Manager
}

// launchMigration scripts the cell's migration on the manager's node: fill
// the store so the copy spans multiple throttled chunks, then migrate a
// range off sn1 onto sn2 at migStart. For the manager-kill cell the
// coordinator abandons at the cutover commit point and a fresh manager
// later adopts the journal.
func launchMigration(t *testing.T, r *rig, kill migKill, fill int) *migProbe {
	t.Helper()
	mgr := r.Storage.Manager
	journal := durable.NewMem()
	mgr.SetJournal(journal)

	for i := 0; i < fill; i++ {
		key := fmt.Sprintf("fill%05d", i)
		if err := r.Storage.BulkLoad([]byte(key), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if kill != killManager {
		// Widen the copy window so the node kill lands inside it. The manager
		// kill is emulated at the journal boundary and needs no widening — a
		// throttled copy there only starves the delta phase under TPC-C's
		// write rate.
		for _, addr := range r.Storage.Addrs() {
			r.Storage.Node(addr).MigrateChunkDelay = 25 * time.Millisecond
		}
	}

	p := &migProbe{}
	for _, part := range mgr.Map().Partitions {
		if part.Master == "sn1" {
			p.pid, p.src, p.dst = part.ID, "sn1", "sn2"
			break
		}
	}
	if p.src == "" {
		t.Fatal("no partition mastered by sn1")
	}
	reachedCutover := false
	if kill == killManager {
		// "Die" at the commit point: the cutover record is durable but the
		// new map is never installed or published, and the fence stays up.
		mgr.OnCutoverJournaled = func(uint64) bool { reachedCutover = true; return false }
	}

	mgr.Node().Go("migration-driver", func(ctx env.Ctx) {
		// The filler bypassed the WAL; on a durable rig checkpoint it so the
		// crashed node's recovery rebuilds a complete image.
		if fill > 0 && r.Recoverer != nil {
			if err := r.Storage.CheckpointAll(ctx); err != nil {
				t.Errorf("checkpoint after fill: %v", err)
			}
		}
		if now := ctx.Now(); now < migStart {
			ctx.Sleep(migStart - now)
		}
		if kill != killManager {
			p.err = mgr.MigratePartition(ctx, p.pid, p.dst)
			p.done = true
			return
		}
		// Under live write traffic the delta phase may legitimately refuse to
		// settle and abort; keep retrying until an attempt reaches the cutover
		// commit point, where the hook abandons the coordinator.
		for attempt := 0; attempt < 40 && !reachedCutover; attempt++ {
			if attempt > 0 {
				ctx.Sleep(30 * time.Millisecond)
			}
			p.err = mgr.MigratePartition(ctx, p.pid, p.dst)
		}
		p.done = true
		if !reachedCutover {
			t.Errorf("no migration attempt reached the cutover commit point (last err: %v)", p.err)
			return
		}
		// The dead coordinator left the fence up and the journal at cutover.
		// A fresh manager adopting the journal must finish the migration:
		// republish the committed map and release the fence, while the bank
		// workers ride out the fenced window on their retry budget.
		ctx.Sleep(60 * time.Millisecond)
		m2 := store.NewManager("mgmt-r", r.Env, r.Env.NewNode("mgmt-r", 2), r.Net)
		m2.SetMap(mgr.Map())
		m2.SetJournal(journal)
		if err := m2.ResolveJournal(ctx); err != nil {
			t.Errorf("resolve journal: %v", err)
		}
		p.recovery = m2
	})
	return p
}

// checkProbe asserts the per-cell migration outcome after the workload run.
func checkProbe(t *testing.T, p *migProbe, kill migKill) {
	t.Helper()
	if !p.done {
		t.Fatal("migration coordinator never returned")
	}
	switch kill {
	case killSource, killTarget:
		// The kill lands inside the copy window, so the migration must have
		// been disrupted and aborted — if it completed, the cell's timing no
		// longer exercises a mid-migration crash.
		if p.err == nil {
			t.Errorf("migration of range %d completed despite the crash; expected an abort", p.pid)
		}
	case killManager:
		if p.err == nil {
			t.Error("abandoned coordinator reported success")
		}
		if p.recovery == nil {
			t.Fatal("recovery manager never resolved the journal")
		}
		// Exactly one owner, and it is the journaled cutover's target.
		pm := p.recovery.Map()
		for _, part := range pm.Partitions {
			if part.ID == p.pid && part.Master != p.dst {
				t.Errorf("range %d master = %s after journal resolution, want %s",
					p.pid, part.Master, p.dst)
			}
		}
	}
}

// migPlan builds the fault plan for a cell: crash-and-restart the killed
// storage node, or no network-level faults for the manager kill (the
// coordinator's death is emulated at the journal boundary).
func migPlan(p *migProbe, kill migKill) (chaos.Plan, time.Duration) {
	switch kill {
	case killSource:
		return chaos.CrashRestartWithDisk(p.src, migCrashAt, 250*time.Millisecond), migCrashAt
	case killTarget:
		return chaos.CrashRestartWithDisk(p.dst, migCrashAt, 250*time.Millisecond), migCrashAt
	default:
		return chaos.NoFaults(), migStart
	}
}

// TestBankMigrationChaos runs the bank workload across the three migration
// crash boundaries at RF 2 with the durable tier attached.
func TestBankMigrationChaos(t *testing.T) {
	class := transport.InfiniBand()
	for _, c := range migCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seed := cellSeed(t, "bank-mig", class.Name, c.name)
			r := newDurableRig(t, seed, class, 2)
			// Push the migrated partition past one transfer chunk so the
			// copy needs a second, throttled pass.
			p := launchMigration(t, r, c.kill, 4200)
			plan, faultAt := migPlan(p, c.kill)
			sc := scenario{name: c.name, faultAt: faultAt,
				plan: func(*rig) chaos.Plan { return plan }}
			runBankCellOn(t, r, class, sc, seed)
			checkProbe(t, p, c.kill)
		})
	}
}

// TestTPCCMigrationChaos repeats the three boundaries under TPC-C: the
// loaded warehouses already exceed one transfer chunk per partition, so no
// filler is needed, and the district consistency check replaces the bank's
// conservation invariant.
func TestTPCCMigrationChaos(t *testing.T) {
	class := transport.InfiniBand()
	for _, c := range migCells() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			seed := cellSeed(t, "tpcc-mig", class.Name, c.name)
			r := newDurableRig(t, seed, class, 2)
			p := launchMigration(t, r, c.kill, 0)
			plan, faultAt := migPlan(p, c.kill)
			sc := scenario{name: c.name, faultAt: faultAt,
				plan: func(*rig) chaos.Plan { return plan }}
			runTpccCellOn(t, r, class, sc, seed)
			checkProbe(t, p, c.kill)
		})
	}
}
