package store

import (
	"fmt"

	"tell/internal/env"
	"tell/internal/transport"
)

// SNCores sizes the simulated storage machines: half of the paper's
// dual-socket servers, as each process was pinned to one NUMA unit (§6.1).
// deploy.PNCores and deploy.CMCores size the other processes.
const SNCores = 4

// ClusterConfig describes a storage cluster to assemble.
type ClusterConfig struct {
	// NumNodes is the number of storage nodes (SNs).
	NumNodes int
	// PartitionsPerNode splits each node's load (default 1).
	PartitionsPerNode int
	// ReplicationFactor is the total number of copies, master included
	// (RF1 = no replication), matching the paper's RF1/RF2/RF3 axes.
	ReplicationFactor int
	// Spares is how many standby nodes to provision for re-replication.
	Spares int
	// Costs is the CPU cost model (DefaultCosts if zero).
	Costs Costs
	// Durable, when non-nil, attaches a WAL + fuzzy-checkpoint tier to
	// every storage node (spares included) on the shared backend named in
	// the options.
	Durable *DurOptions
}

func (c *ClusterConfig) fill() {
	if c.NumNodes <= 0 {
		c.NumNodes = 1
	}
	if c.PartitionsPerNode <= 0 {
		c.PartitionsPerNode = 1
	}
	if c.ReplicationFactor <= 0 {
		c.ReplicationFactor = 1
	}
	if c.Costs == (Costs{}) {
		c.Costs = DefaultCosts()
	}
}

// Cluster is an assembled storage layer: nodes, manager and topology. It
// exists for in-process deployments (simulation, tests, examples); the
// telld binary assembles the same pieces across real processes.
type Cluster struct {
	Env       env.Full
	Transport transport.Transport
	Manager   *Manager
	Nodes     []*Node

	byAddr map[string]*Node
	cfg    ClusterConfig
}

// NewCluster assembles and starts a storage cluster. Partitions are spread
// round-robin across nodes; each partition's replicas live on the next
// ReplicationFactor-1 nodes.
func NewCluster(envr env.Full, tr transport.Transport, cfg ClusterConfig) (*Cluster, error) {
	cfg.fill()
	if cfg.ReplicationFactor > cfg.NumNodes {
		return nil, fmt.Errorf("store: replication factor %d exceeds node count %d",
			cfg.ReplicationFactor, cfg.NumNodes)
	}
	c := &Cluster{
		Env:       envr,
		Transport: tr,
		byAddr:    make(map[string]*Node),
		cfg:       cfg,
	}

	nParts := cfg.NumNodes * cfg.PartitionsPerNode
	parts := EvenPartitions(nParts)
	addrs := make([]string, cfg.NumNodes)
	for i := 0; i < cfg.NumNodes; i++ {
		addrs[i] = fmt.Sprintf("sn%d", i)
	}
	for i := range parts {
		owner := i % cfg.NumNodes
		parts[i].Master = addrs[owner]
		for r := 1; r < cfg.ReplicationFactor; r++ {
			parts[i].Replicas = append(parts[i].Replicas, addrs[(owner+r)%cfg.NumNodes])
		}
	}
	pmap := &PartitionMap{Epoch: 1, Partitions: parts}

	// Management node.
	mgrEnvNode := envr.NewNode("mgmt", 2)
	c.Manager = NewManager("mgmt", envr, mgrEnvNode, tr)
	c.Manager.ReplicationFactor = cfg.ReplicationFactor
	c.Manager.SetMap(pmap)

	// Storage nodes.
	for i := 0; i < cfg.NumNodes+cfg.Spares; i++ {
		addr := fmt.Sprintf("sn%d", i)
		n := envr.NewNode(addr, SNCores)
		sn := NewNode(addr, envr, n, tr, cfg.Costs)
		if cfg.Durable != nil {
			sn.AttachDurability(*cfg.Durable)
		}
		sn.Configure(pmap)
		if err := sn.Start(); err != nil {
			return nil, err
		}
		c.Nodes = append(c.Nodes, sn)
		c.byAddr[addr] = sn
		if i >= cfg.NumNodes {
			c.Manager.AddSpare(addr)
		}
	}
	if err := c.Manager.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// AddStorageNode provisions and starts a fresh, empty storage node at addr
// (scale-out). The node gets the cluster's cost model, core count and — when
// the cluster is durable — its own durability tier, learns the current
// partition map, and registers with the manager so the failure detector and
// the placement controller see it. It masters nothing until the rebalancer
// (or an explicit MigratePartition) moves ranges onto it.
func (c *Cluster) AddStorageNode(addr string) (*Node, error) {
	if c.byAddr[addr] != nil {
		return nil, fmt.Errorf("store: node %q already exists", addr)
	}
	n := c.Env.NewNode(addr, SNCores)
	sn := NewNode(addr, c.Env, n, c.Transport, c.cfg.Costs)
	if c.cfg.Durable != nil {
		sn.AttachDurability(*c.cfg.Durable)
	}
	sn.Configure(c.Manager.Map())
	if err := sn.Start(); err != nil {
		return nil, err
	}
	c.Nodes = append(c.Nodes, sn)
	c.byAddr[addr] = sn
	c.Manager.AddNode(addr)
	return sn, nil
}

// ManagerAddr returns the lookup-service address for clients.
func (c *Cluster) ManagerAddr() string { return c.Manager.Addr() }

// NewClient creates a storage client homed on the given execution node.
func (c *Cluster) NewClient(node env.Node) *Client {
	return NewClient(c.Env, node, c.Transport, c.ManagerAddr())
}

// Node returns the storage node serving addr.
func (c *Cluster) Node(addr string) *Node { return c.byAddr[addr] }

// Addrs returns the addresses of all storage nodes, spares included, in
// creation order (sn0, sn1, ...). Fault injectors use it to pick targets.
func (c *Cluster) Addrs() []string {
	addrs := make([]string, len(c.Nodes))
	for i, n := range c.Nodes {
		addrs[i] = n.Addr()
	}
	return addrs
}

// loadTarget resolves the master node and the replica addresses (appended
// to buf) of the partition owning key. It asks the manager for that one
// partition: Manager.Map would deep-copy the whole map for every loaded key.
func (c *Cluster) loadTarget(key []byte, buf []string) (*Node, []string, error) {
	addr, replicas, ok := c.Manager.owner(key, buf)
	if !ok {
		return nil, nil, fmt.Errorf("store: no partition for key %q", key)
	}
	master := c.byAddr[addr]
	if master == nil {
		return nil, nil, fmt.Errorf("store: unknown master %q", addr)
	}
	return master, replicas, nil
}

// BulkLoad installs a key directly on its master and replicas, bypassing
// the RPC path. Only for dataset population before an experiment starts.
func (c *Cluster) BulkLoad(key, val []byte) error {
	var buf [4]string
	master, replicas, err := c.loadTarget(key, buf[:0])
	if err != nil {
		return err
	}
	stamp := master.BulkLoad(key, val)
	for _, rep := range replicas {
		if rn := c.byAddr[rep]; rn != nil {
			rn.LoadReplica(key, val, stamp)
		}
	}
	return nil
}

// BulkLoadCounter installs a counter cell directly on its master and
// replicas (dataset population only).
func (c *Cluster) BulkLoadCounter(key []byte, v int64) error {
	var buf [4]string
	master, replicas, err := c.loadTarget(key, buf[:0])
	if err != nil {
		return err
	}
	stamp := master.BulkLoadCounter(key, v)
	for _, rep := range replicas {
		if rn := c.byAddr[rep]; rn != nil {
			rn.LoadReplicaCounter(key, v, stamp)
		}
	}
	return nil
}

// CheckpointAll writes a fuzzy checkpoint on every durable node. Call after
// bulk loading: BulkLoad bypasses the WAL, so the loaded image must reach
// the backend before faults are injected.
func (c *Cluster) CheckpointAll(ctx env.Ctx) error {
	for _, n := range c.Nodes {
		if !n.Durable() {
			continue
		}
		if err := n.Checkpoint(ctx); err != nil {
			return err
		}
	}
	return nil
}
