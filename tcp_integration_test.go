package tell_test

// End-to-end integration over real TCP sockets: storage nodes, a
// management node, a commit manager and a processing node all listen on
// 127.0.0.1 ports and speak the binary wire protocol — the deployment shape
// of cmd/telld, exercised in-process.

import (
	"fmt"
	"net"
	"testing"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/relational"
	"tell/internal/store"
	"tell/internal/transport"
	"tell/internal/wire"
)

// freeAddrs reserves n distinct loopback addresses.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = l.Addr().String()
		l.Close()
	}
	return addrs
}

func TestFullStackOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets")
	}
	envr := env.NewReal(1)
	tr := transport.NewTCPNet()
	defer tr.Close()
	addrs := freeAddrs(t, 4) // 2 SNs, 1 manager, 1 CM
	snAddrs := addrs[:2]
	mgrAddr, cmAddr := addrs[2], addrs[3]

	// Management node with a static partition map.
	mgrNode := envr.NewNode("mgr", 2)
	mgr := store.NewManager(mgrAddr, envr, mgrNode, tr)
	mgr.ReplicationFactor = 2
	mgr.PingInterval = 50 * time.Millisecond
	parts := store.EvenPartitions(2)
	for i := range parts {
		parts[i].Master = snAddrs[i%2]
		parts[i].Replicas = []string{snAddrs[(i+1)%2]}
	}
	mgr.SetMap(&store.PartitionMap{Epoch: 1, Partitions: parts})
	if err := mgr.Start(); err != nil {
		t.Fatal(err)
	}
	defer mgr.Stop()

	// Storage nodes, configured from the lookup service like telld does —
	// each with its own telemetry pipeline, as in cmd/telld.
	for i, addr := range snAddrs {
		node := envr.NewNode(fmt.Sprintf("sn%d", i), 2)
		sn := store.NewNode(addr, envr, node, tr, store.DefaultCosts())
		sn.SetObs(obs.New(obs.Config{Window: time.Second}, envr.Now))
		if err := sn.Start(); err != nil {
			t.Fatal(err)
		}
		bootClient := store.NewClient(envr, node, tr, mgrAddr)
		ctx, _ := env.DetachedCtx(node)
		m, err := bootClient.FetchMap(ctx)
		if err != nil {
			t.Fatalf("bootstrap: %v", err)
		}
		sn.Configure(m)
	}

	// Commit manager.
	cmNode := envr.NewNode("cm", 2)
	cm := commitmgr.New("cm0", cmAddr, envr, cmNode, tr, store.NewClient(envr, cmNode, tr, mgrAddr))
	if err := cm.Start(); err != nil {
		t.Fatal(err)
	}
	defer cm.Stop()

	// Processing node.
	pnNode := envr.NewNode("pn", 4)
	pn := core.New(core.Config{ID: "pn"}, envr, pnNode, tr,
		store.NewClient(envr, pnNode, tr, mgrAddr),
		commitmgr.NewClient(envr, pnNode, tr, []string{cmAddr}))
	ctx, _ := env.DetachedCtx(pnNode)

	table, err := pn.Catalog().CreateTable(ctx, &relational.TableSchema{
		Name: "kv",
		Cols: []relational.Column{
			{Name: "k", Type: relational.TInt64},
			{Name: "v", Type: relational.TString},
		},
		PKCols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Write and read back through real sockets.
	txn, err := pn.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 25; i++ {
		if _, err := txn.Insert(ctx, table, relational.Row{
			relational.I64(i), relational.Str(fmt.Sprintf("val-%d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	check, _ := pn.Begin(ctx)
	_, row, found, err := check.LookupPK(ctx, table, relational.I64(13))
	if err != nil || !found || row[1].S != "val-13" {
		t.Fatalf("lookup over TCP: %v %v %v", row, found, err)
	}
	n := 0
	if err := check.ScanPK(ctx, table,
		[]relational.Value{relational.I64(0)},
		[]relational.Value{relational.I64(100)},
		func(e core.IndexEntry) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Fatalf("scan over TCP returned %d rows", n)
	}
	if err := check.Commit(ctx); err != nil {
		t.Fatal(err)
	}

	// Conflict detection works across the wire too.
	a, _ := pn.Begin(ctx)
	b, _ := pn.Begin(ctx)
	rid, _, _, _ := func() (uint64, relational.Row, bool, error) { return a.LookupPK(ctx, table, relational.I64(1)) }()
	a.Update(ctx, table, rid, relational.Row{relational.I64(1), relational.Str("A")})
	b.Update(ctx, table, rid, relational.Row{relational.I64(1), relational.Str("B")})
	if err := a.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := b.Commit(ctx); err != core.ErrConflict {
		t.Fatalf("want conflict over TCP, got %v", err)
	}

	// Extended stats over the wire: the manager fans the request out to the
	// live storage nodes and returns the merged cluster snapshot, so one
	// round trip paints the whole heatmap (what `tellcli top` renders).
	statsConn, err := tr.Dial(pnNode, mgrAddr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := statsConn.RoundTrip(ctx, wire.EncodeStatsExtReq())
	if err != nil {
		t.Fatal(err)
	}
	ext, err := wire.DecodeStatsExt(raw)
	if err != nil {
		t.Fatal(err)
	}
	heatNodes := map[string]bool{}
	var heatOps int64
	for _, h := range ext.Heat {
		heatNodes[h.Node] = true
		heatOps += h.Reads + h.Writes
	}
	for _, addr := range snAddrs {
		if !heatNodes[addr] {
			t.Errorf("merged snapshot missing heat from storage node %s (have %v)", addr, heatNodes)
		}
	}
	if heatOps == 0 {
		t.Error("merged heat rows carry zero operations after the workload")
	}
	foundStore := false
	var writes int64
	for _, s := range ext.Series {
		if s.Metric == "lat/store" && s.Count > 0 {
			foundStore = true
		}
		if s.Metric == "store/writes" {
			writes += s.Total
		}
	}
	if !foundStore {
		t.Error("merged snapshot has no store handler-latency series")
	}
	if writes == 0 {
		t.Error("merged snapshot has no store/writes counter rows")
	}
}
