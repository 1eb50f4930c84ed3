package recovery

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/sanitize"
	"tell/internal/transport"
	"tell/internal/wire"
)

// SNRecoverer rebuilds a dead storage node's partitions from its durable
// objects, RamCloud-style: the dead node's WAL segments and checkpoint
// chunks are partitioned across the surviving SNs, each survivor fetches and
// replays its shard in parallel, and records are routed to the partitions'
// new masters. Recovery time therefore shrinks with cluster size — the
// premise of log-structured durability on shared storage (§4.4.2, and the
// RamCloud fast-recovery design the paper's SN tier follows).
//
// It plugs into store.Manager.Recoverer; the store layer defines the
// interface to avoid an import cycle.
type SNRecoverer struct {
	envr env.Full
	node env.Node
	be   durable.Backend
	// retr retries replay RPCs under the meta policy: replaying an object is
	// apply-if-newer on the receiving master, so a duplicate delivery after a
	// lost response is harmless.
	retr *resil.Retrier

	conns *transport.ConnSet

	mu   sanitize.Mutex
	last RecoveryReport

	// OnRecovered, if set, is called after each completed recovery.
	OnRecovered func(r RecoveryReport)
}

// RecoveryReport summarizes one scatter-gather recovery.
type RecoveryReport struct {
	Dead      string
	Survivors int
	Objects   int
	Records   uint64
	Bytes     uint64
	Elapsed   time.Duration
}

// NewSNRecoverer creates a coordinator homed on the given execution node
// (typically the management node) reading the cluster's shared backend.
func NewSNRecoverer(envr env.Full, node env.Node, tr transport.Transport, be durable.Backend) *SNRecoverer {
	r := &SNRecoverer{
		envr:  envr,
		node:  node,
		be:    be,
		retr:  resil.NewRetrier(),
		conns: transport.NewConnSet(tr, node),
	}
	r.mu.SetName("recovery.SNRecoverer.mu")
	return r
}

// LastReport returns the most recent recovery's summary.
func (r *SNRecoverer) LastReport() RecoveryReport {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// RecoverSN implements store.SNRecoverer. It lists the dead node's durable
// objects, assigns each orphaned partition a new master round-robin over the
// survivors, shards the objects round-robin across the survivors, and drives
// all workers in parallel. Every worker sees the full assignment table, so
// it can route any record it decodes; apply-if-newer by stamp makes the
// result independent of worker interleaving.
func (r *SNRecoverer) RecoverSN(ctx env.Ctx, dead string, pids []uint64, survivors []string) (map[uint64]string, error) {
	if len(survivors) == 0 {
		return nil, fmt.Errorf("recovery: no survivors to recover %s onto", dead)
	}
	start := ctx.Now()
	objs, err := durable.RecoveryObjects(ctx, r.be, dead)
	if err != nil {
		return nil, fmt.Errorf("recovery: list %s: %w", dead, err)
	}

	pids = append([]uint64(nil), pids...)
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	survivors = append([]string(nil), survivors...)
	sort.Strings(survivors)

	assign := make(map[uint64]string, len(pids))
	table := make([]wire.RecoverAssign, len(pids))
	for i, pid := range pids {
		addr := survivors[i%len(survivors)]
		assign[pid] = addr
		table[i] = wire.RecoverAssign{Pid: pid, Addr: addr}
	}

	// Shard objects round-robin so each survivor replays ~1/n of the log.
	shards := make([][]string, len(survivors))
	for i, obj := range objs {
		w := i % len(survivors)
		shards[w] = append(shards[w], obj)
	}

	report := RecoveryReport{Dead: dead, Survivors: len(survivors), Objects: len(objs)}
	var repMu sync.Mutex
	var firstErr error
	done := make([]env.Future, 0, len(survivors))
	for w := range survivors {
		if len(shards[w]) == 0 {
			continue
		}
		w := w
		f := r.envr.NewFuture()
		done = append(done, f)
		ctx.Go("sn-recover", func(wctx env.Ctx) {
			err := r.runWorker(wctx, survivors[w], dead, shards[w], table, &report, &repMu)
			f.Set(err)
		})
	}
	for _, f := range done {
		if err, _ := f.Get(ctx).(error); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	report.Elapsed = ctx.Now() - start
	r.mu.Lock()
	r.last = report
	r.mu.Unlock()
	if r.OnRecovered != nil {
		r.OnRecovered(report)
	}
	return assign, nil
}

// runWorker drives one survivor through its object shard. Objects go one
// per RPC: each carries a full segment or chunk of replay work, and small
// requests keep every round-trip inside the transport's timeout budget.
func (r *SNRecoverer) runWorker(ctx env.Ctx, worker, dead string, objs []string,
	table []wire.RecoverAssign, report *RecoveryReport, repMu *sync.Mutex) error {
	conn, err := r.conns.Get(worker)
	if err != nil {
		return fmt.Errorf("recovery: dial %s: %w", worker, err)
	}
	for _, obj := range objs {
		req := &wire.RecoverRequest{Dead: dead, Objects: []string{obj}, Assign: table}
		raw, _, err := r.retr.Call(ctx, resil.ClassMeta, worker, conn, req.Encode(), nil)
		if err != nil {
			return fmt.Errorf("recovery: worker %s object %s: %w", worker, obj, err)
		}
		resp, err := wire.DecodeRecoverResponse(raw)
		if err != nil {
			return fmt.Errorf("recovery: worker %s: %w", worker, err)
		}
		if resp.Status != wire.StatusOK {
			return fmt.Errorf("recovery: worker %s object %s: %v", worker, obj, resp.Status)
		}
		repMu.Lock()
		report.Records += resp.Records
		report.Bytes += resp.Bytes
		repMu.Unlock()
	}
	return nil
}
