package main

import (
	"fmt"
	"time"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/histcheck"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/tpcc"
	"tell/internal/trace"
	"tell/internal/transport"
)

// virtualDeadline bounds every run on the simulated clock; a run that has not
// finished by then is reported as a failure instead of hanging.
const virtualDeadline = 10 * time.Minute

// deployment is one assembled simulated cluster with the TPC-C dataset
// loaded and the tables opened on every processing node.
type deployment struct {
	w       workload
	cfg     tpcc.Config
	k       *sim.Kernel
	envr    env.Full
	net     *transport.SimNet
	cluster *store.Cluster
	cms     []*commitmgr.Server
	pns     []*core.PN
	stores  []*store.Client
	cmcs    []*commitmgr.Client
	engines []tpcc.Engine
	driver  env.Node

	// Traced pass only.
	rec    *trace.Recorder
	ledger *ledger
	hist   *histcheck.History

	setup time.Duration // host time: assembly + load + engine open
}

// tpccSeed maps the run seed to the dataset/input seed. tpcc.Config treats 0
// as "unset" and substitutes 42, which would make seeds 0 and 42 the same
// inputs.
func tpccSeed(seed int64) int64 {
	if seed == 0 {
		return 1 << 40
	}
	return seed
}

// deploy assembles the cluster for w (the exp.RunTell recipe), opens the
// engines inside the simulation, records the host time that took as setup,
// then runs body on the driver node. It returns once body has finished and
// every simulated process has been shut down.
func deploy(w workload, seed int64, traced bool, body func(ctx env.Ctx, d *deployment) error) (*deployment, error) {
	start := time.Now()
	d := &deployment{w: w, cfg: tpcc.Config{Warehouses: w.warehouses, Scale: scale, Seed: tpccSeed(seed)}}
	d.k = sim.NewKernel(seed)
	d.envr = env.NewSim(d.k)
	d.net = transport.NewSimNet(d.k, w.network)
	var tr transport.Transport = d.net
	if traced {
		// Before any node exists, so every activity carries the recorder.
		d.rec = trace.New(d.envr.Now)
		env.SetTracer(d.envr, d.rec)
		d.ledger = newLedger(d.net, d.rec)
		tr = d.ledger
		d.hist = histcheck.New()
	}

	ccfg := store.ClusterConfig{NumNodes: numSNs, ReplicationFactor: w.rf}
	if w.durable {
		ccfg.Durable = &store.DurOptions{
			Backend:         durable.NewBlob(durable.MemProfile()),
			SegmentBytes:    256 << 10,
			CheckpointBytes: 8 << 20,
		}
	}
	var err error
	if d.cluster, err = store.NewCluster(d.envr, tr, ccfg); err != nil {
		return nil, err
	}
	if _, err := tpcc.Load(d.cluster, d.cfg); err != nil {
		return nil, err
	}

	var cmAddrs []string
	for i := 0; i < numCMs; i++ {
		cmAddrs = append(cmAddrs, fmt.Sprintf("cm%d", i))
	}
	for _, addr := range cmAddrs {
		node := d.envr.NewNode(addr, 2)
		cm := commitmgr.New(addr, addr, d.envr, node, tr, d.cluster.NewClient(node))
		cm.Peers = cmAddrs
		cm.SyncInterval = time.Millisecond
		if err := cm.Start(); err != nil {
			return nil, err
		}
		d.cms = append(d.cms, cm)
	}
	for i := 0; i < numPNs; i++ {
		name := fmt.Sprintf("pn%d", i)
		node := d.envr.NewNode(name, 4)
		sc := d.cluster.NewClient(node)
		// Greedy batching: the client's default window targets kernel TCP,
		// not the simulated fabrics (see exp.TellParams.BatchWindow).
		sc.BatchWindow = 0
		// Each PN prefers "its" commit manager; the rest are fail-over.
		order := append([]string{cmAddrs[i%len(cmAddrs)]}, cmAddrs...)
		cmc := commitmgr.NewClient(d.envr, node, tr, order)
		cmc.Coalesce = true
		cmc.DeltaSnapshots = true
		pn := core.New(core.Config{
			ID:              name,
			Workers:         workersPerPN,
			Buffer:          core.TB,
			CacheIndexInner: true,
		}, d.envr, node, tr, sc, cmc)
		if d.hist != nil {
			pn.SetRecorder(d.hist)
		}
		pn.StartWorkers()
		d.pns = append(d.pns, pn)
		d.stores = append(d.stores, sc)
		d.cmcs = append(d.cmcs, cmc)
	}

	d.driver = d.envr.NewNode("terminals", 4)
	var runErr error
	finished := false
	d.driver.Go("driver", func(ctx env.Ctx) {
		defer d.k.Stop()
		// The bulk load bypasses the WAL; checkpoint it so durable runs
		// start from a recoverable base, as a real deployment would.
		if ccfg.Durable != nil {
			if runErr = d.cluster.CheckpointAll(ctx); runErr != nil {
				return
			}
		}
		for _, pn := range d.pns {
			eng, err := tpcc.NewTellEngine(ctx, pn)
			if err != nil {
				runErr = err
				return
			}
			d.engines = append(d.engines, eng)
		}
		d.setup = time.Since(start)
		if body != nil {
			runErr = body(ctx, d)
		}
		finished = true
	})
	err = d.k.RunUntil(sim.Time(virtualDeadline))
	d.k.Shutdown()
	switch {
	case err != nil:
		return nil, err
	case runErr != nil:
		return nil, runErr
	case !finished:
		return nil, fmt.Errorf("run did not finish within the virtual deadline of %v", virtualDeadline)
	}
	return d, nil
}
