// Package deploy is the one place that assembles a full Tell deployment —
// storage nodes, the management node, the commit-manager fleet and the
// processing nodes (§2, §6.1) — from a declarative Spec. The embedded API
// (tell.Start), the experiment harness (exp.RunTell) and every full-stack
// test rig build their clusters here; `make assembly-gate` keeps it that way.
// DESIGN.md §12 has the lifecycle and what callers set between Build and
// Start.
//
// Spawn order is part of the contract, because under the simulator it fixes
// the event order and therefore every same-seed output: storage nodes →
// management node → [caller loads data] → commit managers → processing
// nodes → driver. Store and CM clients are likewise created in node order
// (their per-environment instance numbers go into wire idempotency tokens).
package deploy

import (
	"fmt"

	"tell/internal/commitmgr"
	"tell/internal/core"
	"tell/internal/env"
	"tell/internal/obs"
	"tell/internal/recovery"
	"tell/internal/store"
	"tell/internal/transport"
)

// Core counts of the simulated machines: PN (and SN, see store.SNCores)
// processes get one NUMA unit of the paper's servers, commit managers and
// management nodes two cores (§6.1).
const (
	PNCores = 4
	CMCores = 2
)

// Spec describes a deployment. It is plain data: anything only one call
// site needs is set on the Deployment's handles between Build and Start.
type Spec struct {
	// Storage describes the storage tier (nodes, replication factor,
	// partitions per node, spares, durability).
	Storage store.ClusterConfig
	// CMs is the size of the commit-manager fleet (at least 1), named
	// cm0, cm1, ...
	CMs int
	// PNs is how many processing nodes to build up front, named pn0, pn1,
	// ...; more can join later through AddPN.
	PNs int
	// PN is the template for every processing node's configuration; ID is
	// filled per node.
	PN core.Config
	// Obs is attached to every storage node and commit manager; nil runs
	// without telemetry.
	Obs *obs.Pipeline
}

// Deployment is an assembled cluster. PNs, PNNodes, StoreClients and
// CMClients are parallel: index i is processing node i's engine, execution
// node, store client and commit-manager client. A Deployment is not safe for
// concurrent use; callers that add nodes from several goroutines serialize.
type Deployment struct {
	Storage *store.Cluster
	CMs     []*commitmgr.Server
	CMAddrs []string
	// Recoverer rebuilds partitions that lost every copy from the durable
	// tier; nil unless Spec.Storage.Durable is set.
	Recoverer *recovery.SNRecoverer

	PNs          []*core.PN
	PNNodes      []env.Node
	StoreClients []*store.Client
	CMClients    []*commitmgr.Client

	envr     env.Full
	tr       transport.Transport
	pnCfg    core.Config
	cmStores []*store.Client
}

// Build assembles the deployment on envr and tr. The storage tier is serving
// when Build returns; commit managers wait for Start.
func Build(envr env.Full, tr transport.Transport, spec Spec) (*Deployment, error) {
	if spec.CMs < 1 {
		return nil, fmt.Errorf("deploy: need at least one commit manager, got %d", spec.CMs)
	}
	if spec.PNs < 0 {
		return nil, fmt.Errorf("deploy: negative processing-node count %d", spec.PNs)
	}
	storage, err := store.NewCluster(envr, tr, spec.Storage)
	if err != nil {
		return nil, err
	}
	d := &Deployment{Storage: storage, envr: envr, tr: tr, pnCfg: spec.PN}
	if spec.Obs != nil {
		for _, sn := range storage.Nodes {
			sn.SetObs(spec.Obs)
		}
	}
	if dur := spec.Storage.Durable; dur != nil {
		d.Recoverer = recovery.NewSNRecoverer(envr, envr.NewNode("rec0", CMCores), tr, dur.Backend)
		storage.Manager.Recoverer = d.Recoverer
	}

	for i := 0; i < spec.CMs; i++ {
		d.CMAddrs = append(d.CMAddrs, fmt.Sprintf("cm%d", i))
	}
	for _, id := range d.CMAddrs {
		node := envr.NewNode(id, CMCores)
		sc := storage.NewClient(node)
		cm := commitmgr.New(id, id, envr, node, tr, sc)
		cm.Peers = d.CMAddrs
		cm.SetObs(spec.Obs)
		d.CMs = append(d.CMs, cm)
		d.cmStores = append(d.cmStores, sc)
	}
	// Migration cutovers sample the commit managers' snapshot boundary; the
	// servers are in-process, so read it directly.
	storage.Manager.Fence = d.minLav

	for i := 0; i < spec.PNs; i++ {
		d.AddPN(fmt.Sprintf("pn%d", i))
	}
	return d, nil
}

// minLav is the fleet-wide lowest active version: the fence token of a
// migration cutover.
func (d *Deployment) minLav(env.Ctx) uint64 {
	lav := d.CMs[0].Lav()
	for _, cm := range d.CMs[1:] {
		if v := cm.Lav(); v < lav {
			lav = v
		}
	}
	return lav
}

// AddPN builds one more processing node — the elastic scale-out of the
// shared-data architecture; legal before and after Start. The node talks
// primarily to "its" commit manager (round-robin by join order, spreading CM
// load) with the whole fleet as fail-over targets.
func (d *Deployment) AddPN(id string) *core.PN {
	i := len(d.PNs)
	node := d.envr.NewNode(id, PNCores)
	sc := d.Storage.NewClient(node)
	order := append([]string{d.CMAddrs[i%len(d.CMAddrs)]}, d.CMAddrs...)
	cmc := commitmgr.NewClient(d.envr, node, d.tr, order)
	cfg := d.pnCfg
	cfg.ID = id
	pn := core.New(cfg, d.envr, node, d.tr, sc, cmc)
	d.PNs = append(d.PNs, pn)
	d.PNNodes = append(d.PNNodes, node)
	d.StoreClients = append(d.StoreClients, sc)
	d.CMClients = append(d.CMClients, cmc)
	return pn
}

// Start launches the commit managers, in fleet order.
func (d *Deployment) Start() error {
	for _, cm := range d.CMs {
		if err := cm.Start(); err != nil {
			return err
		}
	}
	return nil
}

// Stop shuts the deployment down: commit managers, management node,
// processing nodes and every client Build created. Call it once client
// activity has ceased; in-flight transactions may fail. A commit manager's
// sync loop notices its stop flag at its next tick; what it still issues on
// its closed store client until then fails with store.ErrClosed. Under the
// simulator kernel shutdown reclaims the processes and Stop is optional.
func (d *Deployment) Stop() {
	for _, cm := range d.CMs {
		cm.Stop()
	}
	d.Storage.Manager.Stop()
	for i, pn := range d.PNs {
		pn.Stop()
		d.StoreClients[i].Close()
		d.CMClients[i].Close()
	}
	for _, sc := range d.cmStores {
		sc.Close()
	}
}
