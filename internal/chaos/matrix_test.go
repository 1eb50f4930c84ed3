package chaos_test

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"tell/internal/chaos"
	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/histcheck"
	"tell/internal/relational"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

// rig is a fault-tolerant Tell deployment: 3 storage nodes at RF 2 plus a
// spare, two commit managers, two PNs with the history recorder installed.
// The durable variant (newDurableRig) swaps the storage tier for WAL-backed
// nodes with a scatter-gather recoverer.
type rig struct {
	*deploy.Sim
	hist *histcheck.History
}

func newRig(t *testing.T, seed int64, class transport.NetworkClass, weakened bool) *rig {
	t.Helper()
	return buildRig(t, seed, class, weakened, store.ClusterConfig{
		NumNodes: 3, ReplicationFactor: 2, Spares: 1,
	})
}

// newDurableRig assembles the durability-tier deployment: WAL + checkpoints
// on a shared zero-latency blob backend, a scatter-gather recoverer wired to
// the storage manager, and no spares. At RF 1 the only copy of a partition
// is its master plus the log, so every crash cell exercises the durable
// path; at RF 2 replication and the durable tier recover side by side.
func newDurableRig(t *testing.T, seed int64, class transport.NetworkClass, rf int) *rig {
	t.Helper()
	return buildRig(t, seed, class, false, store.ClusterConfig{
		NumNodes: 3, PartitionsPerNode: 2, ReplicationFactor: rf,
		Durable: &store.DurOptions{
			Backend:         durable.NewMem(),
			SegmentBytes:    2 << 10,
			ChunkBytes:      2 << 10,
			CheckpointBytes: 16 << 10,
		},
	})
}

// wireNodeHooks connects process-level chaos events (CrashWithDisk,
// CrashLosingDisk, RestartRecover) to the storage nodes' crash/recover
// entry points. Harmless on rigs whose plans never emit those events.
func (r *rig) wireNodeHooks(inj *chaos.Injector) {
	inj.SetNodeHooks(chaos.NodeHooks{
		Crash: func(addr string, loseDisk bool) {
			if sn := r.Storage.Node(addr); sn != nil {
				sn.CrashVolatile(loseDisk)
			}
		},
		Restart: func(addr string) {
			if sn := r.Storage.Node(addr); sn != nil {
				sn.RecoverAsync()
			}
		},
	})
}

func buildRig(t *testing.T, seed int64, class transport.NetworkClass, weakened bool, cfg store.ClusterConfig) *rig {
	t.Helper()
	s := deploy.NewSim(seed, class)
	err := s.Build(deploy.Spec{
		Storage: cfg,
		CMs:     2,
		PNs:     2,
		PN:      core.Config{SkipWriteValidation: weakened},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{Sim: s, hist: histcheck.New()}
	for _, cm := range s.CMs {
		// Detect a dead peer and recover its finish facts from the
		// transaction log well within a chaos cell's settle window.
		cm.StalePeerTicks = 40
		cm.RecoveryEvery = 25
		cm.RecoveryGrace = 50 * time.Millisecond
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	for _, pn := range s.PNs {
		pn.SetRecorder(r.hist)
		pn.StartWorkers()
	}
	return r
}

// cellSeed derives a stable per-cell default seed so every grid cell runs a
// different (but reproducible) schedule; TELL_SEED overrides it.
func cellSeed(t *testing.T, parts ...string) int64 {
	t.Helper()
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
	}
	return testutil.Seed(t, int64(h.Sum64()%1_000_000))
}

// scenario is one row of the fault-plan grid. faultAt is when the first
// fault strikes (0 for always-on or fault-free plans): the availability
// assertion requires commits after that point.
type scenario struct {
	name    string
	faultAt time.Duration
	plan    func(r *rig) chaos.Plan
}

// bankScenarios builds the fault-plan grid. at is when point faults strike;
// it is tuned per network class so the fault lands mid-workload (InfiniBand
// finishes the whole run in tens of milliseconds, 10GbE is ~20× slower).
func bankScenarios(at time.Duration) []scenario {
	return []scenario{
		{"none", 0, func(r *rig) chaos.Plan { return chaos.NoFaults() }},
		{"storage-crash", at, func(r *rig) chaos.Plan { return chaos.StorageCrash("sn1", at) }},
		{"storage-crash-restart", at, func(r *rig) chaos.Plan {
			return chaos.StorageCrashRestart("sn1", at, 250*time.Millisecond)
		}},
		{"cm-failover", at, func(r *rig) chaos.Plan { return chaos.CMFailover("cm0", at) }},
		{"partition-heal", at, func(r *rig) chaos.Plan {
			// Isolate sn1 from everyone, including the cluster manager:
			// its pings time out, partitions fail over, then the network
			// heals and the stale node rejoins a world that moved on.
			rest := []string{"cm0", "cm1", "pn0", "pn1", r.Driver.Name(), r.Storage.ManagerAddr()}
			for _, a := range r.Storage.Addrs() {
				if a != "sn1" {
					rest = append(rest, a)
				}
			}
			return chaos.PartitionHeal([]string{"sn1"}, rest, at, 200*time.Millisecond)
		}},
		{"flaky-network", 0, func(r *rig) chaos.Plan {
			return chaos.FlakyNetwork(0.005, 0.005, 200*time.Microsecond)
		}},
		// Duplication aimed squarely at the mutating kinds: exactly-once must
		// hold when store writes and grouped CM starts are replayed by the
		// network on top of client-level retries.
		{"dup-mutations", 0, func(r *rig) chaos.Plan {
			return chaos.DupMutations(0, 0.02, 200*time.Microsecond)
		}},
		{"drop-dup-mutations", 0, func(r *rig) chaos.Plan {
			return chaos.DupMutations(0.01, 0.02, 200*time.Microsecond)
		}},
		{"replica-lag", 0, func(r *rig) chaos.Plan { return chaos.ReplicaLag(2 * time.Millisecond) }},
		{"replica-lag-failover", 50 * time.Millisecond, func(r *rig) chaos.Plan {
			return chaos.ReplicaLagWithFailover("sn1", 50*time.Millisecond, 2*time.Millisecond)
		}},
	}
}

func networkClasses() []transport.NetworkClass {
	return []transport.NetworkClass{transport.InfiniBand(), transport.Ethernet10G()}
}

// TestBankChaosMatrix runs concurrent bank transfers under every fault plan
// × network class. Every cell must stay anomaly-free, conserve the total
// balance (both in the recorded history and in the store), and keep
// committing after the fault strikes.
func TestBankChaosMatrix(t *testing.T) {
	for _, class := range networkClasses() {
		at := 30 * time.Millisecond
		if class.Name == transport.InfiniBand().Name {
			at = 8 * time.Millisecond
		}
		for _, sc := range bankScenarios(at) {
			class, sc := class, sc
			t.Run(class.Name+"/"+sc.name, func(t *testing.T) {
				runBankCell(t, class, sc)
			})
		}
	}
}

func runBankCell(t *testing.T, class transport.NetworkClass, sc scenario) {
	seed := cellSeed(t, "bank", class.Name, sc.name)
	runBankCellOn(t, newRig(t, seed, class, false), class, sc, seed)
}

func runBankCellOn(t *testing.T, r *rig, class transport.NetworkClass, sc scenario, seed int64) {
	inj := chaos.Install(r.K, r.Net, sc.plan(r), seed)
	r.wireNodeHooks(inj)
	defer inj.Uninstall()

	const nAcc = 16
	const workers = 4
	const transfers = 40
	var table *core.TableInfo
	var rids []uint64
	finished := 0
	commitsAfterFault := 0

	r.Driver.Go("bank", func(ctx env.Ctx) {
		// Setup with retries: always-on plans (flaky-network) are already
		// injecting faults while the table is created.
		var err error
		for attempt := 0; ; attempt++ {
			table, err = r.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
			if err == nil {
				break
			}
			if attempt > 20 {
				t.Errorf("create table: %v", err)
				r.K.Stop()
				return
			}
			ctx.Sleep(10 * time.Millisecond)
		}
		for attempt := 0; ; attempt++ {
			setup, err := r.PNs[0].Begin(ctx)
			if err == nil {
				rids = rids[:0]
				for i := int64(0); i < nAcc && err == nil; i++ {
					var rid uint64
					rid, err = setup.Insert(ctx, table, account(i, "a", 100))
					rids = append(rids, rid)
				}
				if err == nil {
					err = setup.Commit(ctx)
				} else {
					setup.Abort(ctx)
				}
				if err == nil {
					break
				}
			}
			if attempt > 20 {
				t.Errorf("setup: %v", err)
				r.K.Stop()
				return
			}
			ctx.Sleep(10 * time.Millisecond)
		}

		for w := 0; w < workers; w++ {
			pn := r.PNs[w%len(r.PNs)]
			r.Driver.Go("worker", func(ctx env.Ctx) {
				defer func() { finished++ }()
				tbl := openWithRetry(t, ctx, pn, "accounts")
				if tbl == nil {
					return
				}
				rng := ctx.Rand()
				for i := 0; i < transfers; i++ {
					from, to := rids[rng.Intn(nAcc)], rids[rng.Intn(nAcc)]
					if from == to {
						continue
					}
					for attempt := 0; attempt < 40; attempt++ {
						txn, err := pn.Begin(ctx)
						if err != nil {
							ctx.Sleep(5 * time.Millisecond)
							continue
						}
						fr, ok1, err1 := txn.Read(ctx, tbl, from)
						tr, ok2, err2 := txn.Read(ctx, tbl, to)
						if err1 != nil || err2 != nil || !ok1 || !ok2 {
							txn.Abort(ctx)
							ctx.Sleep(5 * time.Millisecond)
							continue
						}
						txn.Update(ctx, tbl, from, account(fr[0].I, "a", fr[2].I-1))
						txn.Update(ctx, tbl, to, account(tr[0].I, "a", tr[2].I+1))
						if err := txn.Commit(ctx); err == nil {
							if ctx.Now() > sc.faultAt {
								commitsAfterFault++
							}
							break
						}
						ctx.Sleep(time.Millisecond)
					}
				}
			})
		}

		r.Driver.Go("verify", func(ctx env.Ctx) {
			for finished < workers {
				ctx.Sleep(5 * time.Millisecond)
			}
			ctx.Sleep(300 * time.Millisecond) // let recovery settle

			// Conservation in the store itself.
			var total int64
			var lastErr error
			scanned := false
			for attempt := 0; attempt < 20 && !scanned; attempt++ {
				txn, err := r.PNs[0].Begin(ctx)
				if err != nil {
					lastErr = fmt.Errorf("begin: %w", err)
					ctx.Sleep(10 * time.Millisecond)
					continue
				}
				total = 0
				scanErr := txn.ScanTable(ctx, table, func(rid uint64, row relational.Row) bool {
					total += row[2].I
					return true
				})
				txn.Commit(ctx)
				scanned = scanErr == nil
				if !scanned {
					lastErr = fmt.Errorf("scan: %w", scanErr)
					ctx.Sleep(10 * time.Millisecond)
				}
			}
			if !scanned {
				t.Errorf("could not scan the table after the run: %v", lastErr)
			} else if total != nAcc*100 {
				t.Errorf("store total = %d, want %d: committed money lost or duplicated", total, nAcc*100)
			}
			r.K.Stop()
		})
	})
	if err := r.K.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if finished != workers {
		t.Fatalf("only %d/%d workers finished", finished, workers)
	}
	if commitsAfterFault == 0 {
		t.Errorf("no transfers committed after the fault at %v (availability lost)", sc.faultAt)
	}

	// The recorded history must be anomaly-free...
	rep := r.hist.Check()
	if !rep.Ok() {
		t.Errorf("history anomalies under %s/%s:\n%s", class.Name, sc.name, rep)
	}
	// ...and conserve the total on its own account.
	state := r.hist.CommittedState()
	var histTotal int64
	for _, rid := range rids {
		key := string(relational.RecordKey(table.Schema.ID, rid))
		row, ok := state[key]
		if !ok {
			t.Fatalf("account rid %d missing from committed state", rid)
		}
		histTotal += row[2].I
	}
	if histTotal != nAcc*100 {
		t.Errorf("history total = %d, want %d", histTotal, nAcc*100)
	}
	var committed uint64
	for _, pn := range r.PNs {
		c, _ := pn.Stats()
		committed += c
	}
	if committed == 0 {
		t.Error("nothing committed")
	}
	drops, dups, delays := inj.Stats()
	t.Logf("%s/%s: seed=%d committed=%d afterFault=%d failovers=%d faults(drop=%d dup=%d delay=%d)\n%s",
		class.Name, sc.name, seed, committed, commitsAfterFault,
		r.Storage.Manager.Failovers(), drops, dups, delays, rep)
	r.K.Shutdown()
}

func openWithRetry(t *testing.T, ctx env.Ctx, pn *core.PN, name string) *core.TableInfo {
	for attempt := 0; attempt < 40; attempt++ {
		tbl, err := pn.Catalog().OpenTable(ctx, name)
		if err == nil {
			return tbl
		}
		ctx.Sleep(10 * time.Millisecond)
	}
	t.Errorf("open %s: retries exhausted", name)
	return nil
}

// accountsSchema mirrors the bank table used across the repo's tests.
func accountsSchema() *relational.TableSchema {
	return &relational.TableSchema{
		Name: "accounts",
		Cols: []relational.Column{
			{Name: "id", Type: relational.TInt64},
			{Name: "owner", Type: relational.TString},
			{Name: "balance", Type: relational.TInt64},
		},
		PKCols: []int{0},
	}
}

func account(id int64, owner string, balance int64) relational.Row {
	return relational.Row{relational.I64(id), relational.Str(owner), relational.I64(balance)}
}

// TestNegativeControlWeakenedEngineFlagsAnomalies is the checker's
// calibration shot: with write validation disabled (blind puts, no
// first-committer-wins) concurrent read-modify-write transfers must produce
// lost updates, and histcheck must catch them. If this test fails, the
// green matrix above proves nothing.
func TestNegativeControlWeakenedEngineFlagsAnomalies(t *testing.T) {
	seed := testutil.Seed(t, 4242)
	r := newRig(t, seed, transport.InfiniBand(), true)

	const nAcc = 2 // hot keys: collisions near-certain
	const workers = 4
	var rids []uint64
	finished := 0

	r.Driver.Go("weakened", func(ctx env.Ctx) {
		table, err := r.PNs[0].Catalog().CreateTable(ctx, accountsSchema())
		if err != nil {
			t.Error(err)
			r.K.Stop()
			return
		}
		setup, _ := r.PNs[0].Begin(ctx)
		for i := int64(0); i < nAcc; i++ {
			rid, _ := setup.Insert(ctx, table, account(i, "a", 100))
			rids = append(rids, rid)
		}
		if err := setup.Commit(ctx); err != nil {
			t.Error(err)
			r.K.Stop()
			return
		}
		// pn1 takes its snapshots from cm1, which learns of this commit at
		// its next sync with cm0.
		ctx.Sleep(5 * time.Millisecond)
		for w := 0; w < workers; w++ {
			pn := r.PNs[w%len(r.PNs)]
			r.Driver.Go("worker", func(ctx env.Ctx) {
				tbl, _ := pn.Catalog().OpenTable(ctx, "accounts")
				for i := 0; i < 25; i++ {
					txn, err := pn.Begin(ctx)
					if err != nil {
						ctx.Sleep(time.Millisecond)
						continue
					}
					fr, _, _ := txn.Read(ctx, tbl, rids[0])
					to, _, _ := txn.Read(ctx, tbl, rids[1])
					// Widen the read-to-commit window so writers overlap.
					ctx.Sleep(200 * time.Microsecond)
					txn.Update(ctx, tbl, rids[0], account(fr[0].I, "a", fr[2].I-1))
					txn.Update(ctx, tbl, rids[1], account(to[0].I, "a", to[2].I+1))
					txn.Commit(ctx)
				}
				finished++
				if finished == workers {
					r.K.Stop()
				}
			})
		}
	})
	if err := r.K.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if finished != workers {
		t.Fatalf("only %d/%d workers finished", finished, workers)
	}
	rep := r.hist.Check()
	lost := rep.ByKind(histcheck.LostUpdate)
	if lost == 0 {
		t.Fatalf("weakened engine produced no lost updates; checker has no teeth (report: %s)", rep)
	}
	t.Logf("negative control: %d lost updates detected (of %d anomalies)", lost, len(rep.Anomalies))
	r.K.Shutdown()
}
