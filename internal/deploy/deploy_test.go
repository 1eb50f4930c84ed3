package deploy_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tell/internal/core"
	"tell/internal/deploy"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/testutil"
	"tell/internal/transport"
)

func TestMain(m *testing.M) { testutil.Main(m) }

func kvSchema() *relational.TableSchema {
	return &relational.TableSchema{
		Name:   "kv",
		Cols:   []relational.Column{{Name: "k", Type: relational.TInt64}, {Name: "v", Type: relational.TInt64}},
		PKCols: []int{0},
	}
}

// TestSpecDefaultsAndRejection: a near-zero spec yields the smallest legal
// deployment; impossible specs are refused before anything is spawned.
func TestSpecDefaultsAndRejection(t *testing.T) {
	s := deploy.NewSim(testutil.Seed(t, 1), transport.InfiniBand())
	if err := s.Build(deploy.Spec{CMs: 1}); err != nil {
		t.Fatal(err)
	}
	defer s.K.Shutdown()
	if got := s.Storage.Addrs(); len(got) != 1 || got[0] != "sn0" {
		t.Fatalf("storage nodes %v, want [sn0]", got)
	}
	if len(s.CMs) != 1 || s.CMAddrs[0] != "cm0" || len(s.PNs) != 0 || s.Recoverer != nil {
		t.Fatalf("cms=%v pns=%d recoverer=%v", s.CMAddrs, len(s.PNs), s.Recoverer)
	}
	if s.AddPN("extra"); len(s.PNs) != 1 || s.PNNodes[0].Name() != "extra" {
		t.Fatalf("AddPN: %d PNs, node %q", len(s.PNs), s.PNNodes[0].Name())
	}

	for name, spec := range map[string]deploy.Spec{
		"rf > sns":    {Storage: store.ClusterConfig{NumNodes: 2, ReplicationFactor: 3}, CMs: 1},
		"no cms":      {Storage: store.ClusterConfig{NumNodes: 2}},
		"negative pn": {CMs: 1, PNs: -1},
	} {
		bad := deploy.NewSim(1, transport.InfiniBand())
		if err := bad.Build(spec); err == nil {
			t.Errorf("%s: Build accepted an impossible spec", name)
		}
		if bad.Deployment != nil || bad.K.Procs() != 0 {
			t.Errorf("%s: rejected spec left a deployment (%d processes)", name, bad.K.Procs())
		}
	}
}

// runDigest builds a durable 2 PN / 3 SN / 2 CM deployment, checks the
// cross-component wiring every assembly used to do by hand (and most
// forgot), runs concurrent read-modify-write transactions across both PNs,
// and renders everything observable about the run: node and spawn order,
// virtual end time, network totals, per-node counters.
func runDigest(t *testing.T, seed int64) string {
	t.Helper()
	s := deploy.NewSim(seed, transport.InfiniBand())
	err := s.Build(deploy.Spec{
		Storage: store.ClusterConfig{
			NumNodes: 3, ReplicationFactor: 2,
			Durable: &store.DurOptions{Backend: durable.NewMem(), SegmentBytes: 4 << 10, CheckpointBytes: 1 << 20},
		},
		CMs: 2,
		PNs: 2,
	})
	if err == nil {
		err = s.Storage.BulkLoad([]byte("loaded"), []byte("v"))
	}
	if err == nil {
		err = s.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	if s.Recoverer == nil || s.Storage.Manager.Recoverer == nil {
		t.Fatal("durable spec built without a recoverer")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%v %v", s.Storage.Addrs(), s.CMAddrs)
	for _, n := range s.PNNodes {
		fmt.Fprintf(&b, " %s", n.Name())
	}
	fmt.Fprintf(&b, " procs=%d", s.K.Procs())

	var end time.Duration
	err = s.Run(time.Minute, func(ctx env.Ctx) {
		// Run checkpointed the bulk load before handing over.
		for _, sn := range s.Storage.Nodes {
			if _, _, ckpts := sn.DurStats(); ckpts != 1 {
				t.Errorf("%s: %d checkpoints after the bulk load, want 1", sn.Addr(), ckpts)
			}
		}
		table, err := s.PNs[0].Catalog().CreateTable(ctx, kvSchema())
		if err != nil {
			t.Fatal(err)
		}
		setup, _ := s.PNs[0].Begin(ctx)
		var rids []uint64
		for k := int64(0); k < 4; k++ {
			rid, err := setup.Insert(ctx, table, relational.Row{relational.I64(k), relational.I64(0)})
			if err != nil {
				t.Fatal(err)
			}
			rids = append(rids, rid)
		}
		if err := setup.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		ctx.Sleep(5 * time.Millisecond) // both commit managers have the setup

		// Commit managers hand out disjoint tid ranges, so first tids from
		// different ranges prove the PNs spread over the fleet; while those
		// transactions pin both lavs the fence must report the minimum.
		probe0, _ := s.PNs[0].Begin(ctx)
		probe1, _ := s.PNs[1].Begin(ctx)
		if span := uint64(s.CMs[0].TidRange); (probe0.TID()-1)/span == (probe1.TID()-1)/span {
			t.Errorf("tids %d and %d come from one commit manager: PNs not spread", probe0.TID(), probe1.TID())
		}
		want := s.CMs[0].Lav()
		if v := s.CMs[1].Lav(); v < want {
			want = v
		}
		if fence := s.Storage.Manager.Fence; fence == nil || fence(ctx) != want {
			t.Errorf("Manager.Fence unwired or not the fleet's min lav %d", want)
		}
		probe0.Abort(ctx)
		probe1.Abort(ctx)

		futs := make([]env.Future, 4)
		for w := range futs {
			w, pn, fut := w, s.PNs[w%2], s.Env.NewFuture()
			futs[w] = fut
			s.Driver.Go("worker", func(ctx env.Ctx) {
				defer fut.Set(nil)
				tbl, _ := pn.Catalog().OpenTable(ctx, "kv")
				for i := 0; i < 20; i++ {
					txn, err := pn.Begin(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					rid := rids[ctx.Rand().Intn(len(rids))]
					if row, ok, _ := txn.Read(ctx, tbl, rid); ok {
						txn.Update(ctx, tbl, rid, relational.Row{row[0], relational.I64(row[1].I + int64(w))})
					}
					// Conflicts are part of the digest (abort counters).
					if err := txn.Commit(ctx); err != nil && err != core.ErrConflict {
						t.Error(err)
					}
				}
			})
		}
		for _, f := range futs {
			f.Get(ctx)
		}
		end = ctx.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	st := s.Net.Stats()
	fmt.Fprintf(&b, " end=%v net=%d/%d/%d", end, st.Requests, st.BytesSent, st.BytesRecv)
	for i, pn := range s.PNs {
		c, a := pn.Stats()
		fmt.Fprintf(&b, " %s=%d/%d ops=%d cm=%d", s.PNNodes[i].Name(), c, a, s.StoreClients[i].Ops(), s.CMClients[i].Msgs())
	}
	return b.String()
}

// TestSameSeedBuildsAreIdentical: two same-seed builds have the same node and
// spawn order and render a byte-identical run digest.
func TestSameSeedBuildsAreIdentical(t *testing.T) {
	seed := testutil.Seed(t, 7)
	a, b := runDigest(t, seed), runDigest(t, seed)
	if a != b {
		t.Fatalf("digests diverged for seed %d:\n  %s\n  %s", seed, a, b)
	}
	if !strings.HasPrefix(a, "nodes=[sn0 sn1 sn2] [cm0 cm1] pn0 pn1 procs=") {
		t.Fatalf("unexpected node order: %s", a)
	}
}

// TestRealEnvLifecycle drives the embedded path (tell.Start /
// NewProcessingNode / Close): build on real goroutines, add a processing
// node after Start, commit through it, and Stop — which must take every
// goroutine the deployment started down with it (TestMain's leak gate fails
// the package otherwise).
func TestRealEnvLifecycle(t *testing.T) {
	d, err := deploy.Build(env.NewReal(1), transport.NewLocalNet(), deploy.Spec{
		Storage: store.ClusterConfig{NumNodes: 2, ReplicationFactor: 2},
		CMs:     2,
	})
	if err == nil {
		err = d.Start()
	}
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Stop closes the commit managers' store clients right after
		// raising their stop flags: what a sync loop still issues fails
		// with store.ErrClosed, so there is no grace period to sleep out
		// (it was 50 ms when such an operation hung instead).
		begin := time.Now()
		d.Stop()
		if took := time.Since(begin); took >= 50*time.Millisecond {
			t.Errorf("Stop took %v on the real environment; it must not sleep", took)
		}
	}()
	if d.Storage.Manager.Fence == nil {
		t.Error("Manager.Fence not wired on the real environment")
	}
	pn := d.AddPN("late")
	ctx, ok := env.DetachedCtx(d.PNNodes[0])
	if !ok {
		t.Fatal("no detached context on the real environment")
	}
	table, err := pn.Catalog().CreateTable(ctx, kvSchema())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := pn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert(ctx, table, relational.Row{relational.I64(1), relational.I64(2)}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
}
