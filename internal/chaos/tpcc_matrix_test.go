package chaos_test

import (
	"math/rand"
	"testing"
	"time"

	"tell/internal/chaos"
	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/sim"
	"tell/internal/tpcc"
	"tell/internal/transport"
)

// tpccScenarios is the reduced fault grid for the heavier TPC-C workload:
// one storage failure, one commit-manager failure, and an always-on lossy
// network cover the three distinct recovery paths.
func tpccScenarios(at time.Duration) []scenario {
	return []scenario{
		{"storage-crash", at, func(r *rig) chaos.Plan { return chaos.StorageCrash("sn1", at) }},
		{"cm-failover", at, func(r *rig) chaos.Plan { return chaos.CMFailover("cm0", at) }},
		{"flaky-network", 0, func(r *rig) chaos.Plan {
			return chaos.FlakyNetwork(0.003, 0.003, 200*time.Microsecond)
		}},
		// Duplicate + drop the mutating kinds only (store writes, grouped CM
		// starts): the TPC-C consistency check (d_next_o_id vs max(o_id))
		// would catch a double-applied NewOrder immediately.
		{"dup-mutations", 0, func(r *rig) chaos.Plan {
			return chaos.DupMutations(0.005, 0.015, 200*time.Microsecond)
		}},
	}
}

// TestTPCCChaosMatrix drives the standard TPC-C mix through retry-tolerant
// terminals while faults strike. Every cell must keep committing after the
// fault, record an anomaly-free history, and satisfy TPC-C consistency
// condition 1&3 (clause 3.3.2: d_next_o_id - 1 == max(o_id) per district).
func TestTPCCChaosMatrix(t *testing.T) {
	for _, class := range networkClasses() {
		at := 60 * time.Millisecond
		if class.Name == transport.InfiniBand().Name {
			at = 15 * time.Millisecond
		}
		for _, sc := range tpccScenarios(at) {
			class, sc := class, sc
			t.Run(class.Name+"/"+sc.name, func(t *testing.T) {
				runTpccCell(t, class, sc)
			})
		}
	}
}

// issueTx dispatches one generated transaction to the engine (the chaos
// harness drives engines directly: the stock tpcc.Driver terminals stop on
// the first infrastructure error, which under fault injection is the point).
func issueTx(ctx env.Ctx, e tpcc.Engine, tt tpcc.TxType, input any) (bool, error) {
	switch tt {
	case tpcc.TxNewOrder:
		return e.NewOrder(ctx, input.(*tpcc.NewOrderInput))
	case tpcc.TxPayment:
		return e.Payment(ctx, input.(*tpcc.PaymentInput))
	case tpcc.TxOrderStatus:
		return e.OrderStatus(ctx, input.(*tpcc.OrderStatusInput))
	case tpcc.TxDelivery:
		return e.Delivery(ctx, input.(*tpcc.DeliveryInput))
	default:
		return e.StockLevel(ctx, input.(*tpcc.StockLevelInput))
	}
}

func runTpccCell(t *testing.T, class transport.NetworkClass, sc scenario) {
	seed := cellSeed(t, "tpcc", class.Name, sc.name)
	runTpccCellOn(t, newRig(t, seed, class, false), class, sc, seed)
}

func runTpccCellOn(t *testing.T, r *rig, class transport.NetworkClass, sc scenario, seed int64) {
	cfg := tpcc.Config{Warehouses: 2, Scale: 0.02, Seed: seed}
	loaded, err := tpcc.Load(r.Storage, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg = loaded.Config
	inj := chaos.Install(r.K, r.Net, sc.plan(r), seed)
	r.wireNodeHooks(inj)
	defer inj.Uninstall()

	const terminals = 4
	const txPerTerminal = 30
	finished := 0
	committed := 0
	commitsAfterFault := 0

	r.Driver.Go("tpcc", func(ctx env.Ctx) {
		// BulkLoad writes straight into the memtables, bypassing the WAL;
		// on a durable rig, checkpoint the loaded state first so a crash
		// can rebuild the initial database from the blob tier.
		if r.Recoverer != nil {
			if err := r.Storage.CheckpointAll(ctx); err != nil {
				t.Errorf("checkpoint after load: %v", err)
				r.K.Stop()
				return
			}
		}
		for term := 0; term < terminals; term++ {
			term := term
			pn := r.PNs[term%len(r.PNs)]
			r.Driver.Go("terminal", func(ctx env.Ctx) {
				defer func() { finished++ }()
				// Engine construction opens the catalog; always-on plans
				// are already dropping packets, so retry.
				var eng tpcc.Engine
				for attempt := 0; ; attempt++ {
					var err error
					eng, err = tpcc.NewTellEngine(ctx, pn)
					if err == nil {
						break
					}
					if attempt > 20 {
						t.Errorf("terminal %d: engine: %v", term, err)
						return
					}
					ctx.Sleep(10 * time.Millisecond)
				}
				w := (term % cfg.Warehouses) + 1
				d := (term/cfg.Warehouses)%tpcc.DistrictsPerWarehouse + 1
				rng := rand.New(rand.NewSource(seed + int64(term)*7919))
				gen := tpcc.NewInputGen(cfg, tpcc.StandardMix(), w, d, rng)
				for i := 0; i < txPerTerminal; i++ {
					tt, input := gen.Next()
					// Unlike the benchmark driver, retry infrastructure
					// errors: under injected faults they are expected, and
					// the cell asserts the system works through them.
					for attempt := 0; attempt < 40; attempt++ {
						ok, err := issueTx(ctx, eng, tt, input)
						if err == nil {
							if ok {
								committed++
								if ctx.Now() > sc.faultAt {
									commitsAfterFault++
								}
							}
							break
						}
						ctx.Sleep(5 * time.Millisecond)
					}
				}
			})
		}

		for finished < terminals {
			ctx.Sleep(5 * time.Millisecond)
		}
		ctx.Sleep(300 * time.Millisecond) // let recovery settle

		// TPC-C consistency 1&3 (clause 3.3.2), checked across every
		// district with retries: d_next_o_id - 1 == max(o_id).
		checked := false
		var lastErr error
		for attempt := 0; attempt < 20 && !checked; attempt++ {
			lastErr = checkDistricts(ctx, t, r.PNs[0], cfg)
			checked = lastErr == nil
			if !checked {
				ctx.Sleep(10 * time.Millisecond)
			}
		}
		if !checked {
			t.Errorf("district consistency unverifiable: %v", lastErr)
		}
		r.K.Stop()
	})
	if err := r.K.RunUntil(sim.Time(3000 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if finished != terminals {
		t.Fatalf("only %d/%d terminals finished", finished, terminals)
	}
	if committed == 0 {
		t.Error("nothing committed")
	}
	if commitsAfterFault == 0 {
		t.Errorf("no transactions committed after the fault at %v (availability lost)", sc.faultAt)
	}
	rep := r.hist.Check()
	if !rep.Ok() {
		t.Errorf("history anomalies under %s/%s:\n%s", class.Name, sc.name, rep)
	}
	drops, dups, delays := inj.Stats()
	t.Logf("%s/%s: seed=%d committed=%d afterFault=%d faults(drop=%d dup=%d delay=%d)\n%s",
		class.Name, sc.name, seed, committed, commitsAfterFault, drops, dups, delays, rep)
	r.K.Shutdown()
}

// checkDistricts verifies d_next_o_id - 1 == max(o_id) for every district.
// An assertion mismatch fails the test immediately; infrastructure errors
// are returned so the caller can retry while recovery is still settling.
func checkDistricts(ctx env.Ctx, t *testing.T, pn *core.PN, cfg tpcc.Config) error {
	dist, err := pn.Catalog().OpenTable(ctx, tpcc.TDistrict)
	if err != nil {
		return err
	}
	ords, err := pn.Catalog().OpenTable(ctx, tpcc.TOrders)
	if err != nil {
		return err
	}
	txn, err := pn.Begin(ctx)
	if err != nil {
		return err
	}
	defer txn.Commit(ctx)
	for w := 1; w <= cfg.Warehouses; w++ {
		for d := 1; d <= tpcc.DistrictsPerWarehouse; d++ {
			_, dRow, found, err := txn.LookupPK(ctx, dist,
				relational.I64(int64(w)), relational.I64(int64(d)))
			if err != nil {
				return err
			}
			if !found {
				t.Fatalf("district %d/%d missing", w, d)
			}
			var maxO int64
			err = txn.ScanPK(ctx, ords,
				[]relational.Value{relational.I64(int64(w)), relational.I64(int64(d))},
				[]relational.Value{relational.I64(int64(w)), relational.I64(int64(d + 1))},
				func(e core.IndexEntry) bool {
					if e.Row[tpcc.OID].I > maxO {
						maxO = e.Row[tpcc.OID].I
					}
					return true
				})
			if err != nil {
				return err
			}
			if dRow[tpcc.DNextOID].I != maxO+1 {
				t.Fatalf("w%d d%d: next_o_id=%d max(o_id)=%d",
					w, d, dRow[tpcc.DNextOID].I, maxO)
			}
		}
	}
	return nil
}
