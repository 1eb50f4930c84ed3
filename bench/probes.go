package main

import (
	"fmt"
	"runtime"
	"time"

	"tell/internal/btree"
	"tell/internal/durable"
	"tell/internal/env"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/resil"
	"tell/internal/sim"
	"tell/internal/store"
	"tell/internal/tpcc"
	"tell/internal/transport"
	"tell/internal/wire"
)

// A probe times one layer's exported entry point in a loop over fixed
// synthetic inputs and reports host nanoseconds and mallocs per call. The
// ledger says how often a transaction makes that call; the probe says what
// one call costs, so a layer's optimisation can be predicted and checked in
// isolation. All probes run inside one small simulated world (1 storage
// node), because that is where the layers run in the benchmark itself.

// probeNames lists the probes in reporting order.
var probeNames = []string{
	"wire.storereq16_encode", "wire.storereq16_decode",
	"mvcc.record_codec", "mvcc.snapshot_delta",
	"btree.lookup", "btree.insert",
	"store.node_get", "store.node_condput",
	"durable.wal_append_sync", "resil.window_commit",
	"sim.sleep_wake", "relational.row_codec",
}

// probeWorld is the environment the probe bodies share.
type probeWorld struct {
	ctx     env.Ctx
	client  *store.Client
	handler transport.Handler // the storage node's request handler
}

// handlerTap is a transport that remembers the handler registered for one
// address, so a probe can call a node's request path without a network.
type handlerTap struct {
	transport.Transport
	addr string
	h    transport.Handler
}

func (t *handlerTap) Listen(addr string, node env.Node, h transport.Handler) error {
	if addr == t.addr {
		t.h = h
	}
	return t.Transport.Listen(addr, node, h)
}

// probeResult is one probe's cost per call.
type probeResult struct{ ns, allocs float64 }

// probeBatches is how many equal batches a probe's calls are timed in; the
// reported time is the median batch's, which a cold cache, a collector cycle
// or a preempted batch does not move.
const probeBatches = 5

// runProbes executes every probe and returns its cost by name.
func runProbes() (map[string]probeResult, error) {
	k := sim.NewKernel(1)
	envr := env.NewSim(k)
	tap := &handlerTap{Transport: transport.NewSimNet(k, transport.InfiniBand()), addr: "sn0"}
	cluster, err := store.NewCluster(envr, tap, store.ClusterConfig{NumNodes: 1})
	if err != nil {
		return nil, err
	}
	node := envr.NewNode("probe", 4)
	out := map[string]probeResult{}
	var runErr error
	node.Go("probes", func(ctx env.Ctx) {
		defer k.Stop()
		w := &probeWorld{ctx: ctx, client: cluster.NewClient(node), handler: tap.h}
		for _, name := range probeNames {
			iters, op, err := buildProbe(name, w)
			if err != nil {
				runErr = fmt.Errorf("probe %s: %w", name, err)
				return
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var ns []float64
			for b := 0; b < probeBatches; b++ {
				start := time.Now()
				for i := b * iters; i < (b+1)*iters; i++ {
					if err := op(i); err != nil {
						runErr = fmt.Errorf("probe %s, call %d: %w", name, i, err)
						return
					}
				}
				ns = append(ns, float64(time.Since(start).Nanoseconds())/float64(iters))
			}
			runtime.ReadMemStats(&after)
			out[name] = probeResult{
				ns:     median(ns),
				allocs: float64(after.Mallocs-before.Mallocs) / float64(probeBatches*iters),
			}
		}
	})
	err = k.RunUntil(sim.Time(virtualDeadline))
	k.Shutdown()
	if err == nil {
		err = runErr
	}
	if err == nil && len(out) != len(probeNames) {
		err = fmt.Errorf("probes did not finish within the virtual deadline")
	}
	return out, err
}

// sink keeps results alive so the compiler cannot drop a probed call.
var sink any

// buildProbe prepares the named probe's inputs and returns its calls per
// batch and its body.
func buildProbe(name string, w *probeWorld) (int, func(i int) error, error) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("probe/%s/%08d", name, i)) }
	val := make([]byte, 96)
	switch name {
	case "wire.storereq16_encode", "wire.storereq16_decode":
		// 16 ops, the batch a busy PN sends: reads beside conditional writes.
		req := &wire.StoreRequest{Epoch: 1, Client: "pn0#1"}
		for i := 0; i < 16; i++ {
			op := wire.Op{Code: wire.OpGet, Key: key(i)}
			if i%4 == 3 {
				op = wire.Op{Code: wire.OpCondPut, Key: key(i), Val: val, Stamp: uint64(i), Seq: uint64(i + 1)}
			}
			req.Ops = append(req.Ops, op)
		}
		if name == "wire.storereq16_encode" {
			return 100000, func(int) error { wire.PutBuf(req.Encode()); return nil }, nil
		}
		raw := req.Encode()
		var dec wire.StoreRequest
		return 100000, func(int) error { return dec.DecodeFrom(raw) }, nil

	case "mvcc.record_codec":
		rec := mvcc.NewRecord(7, val).WithVersion(9, false, val).WithVersion(12, false, val)
		return 100000, func(int) error {
			r, err := mvcc.Decode(rec.Encode())
			sink = r
			return err
		}, nil

	case "mvcc.snapshot_delta":
		// What a grouped commit-manager response carries: the base moved on
		// and a few newer transactions committed out of order.
		old, cur := mvcc.NewSnapshot(1000), mvcc.NewSnapshot(1012)
		for _, t := range []uint64{1003, 1007, 1015, 1030} {
			old.Add(t)
			cur.Add(t + 20)
		}
		return 100000, func(int) error {
			s, err := mvcc.Diff(old, cur).Apply(old)
			sink = s
			return err
		}, nil

	case "btree.lookup", "btree.insert":
		if err := btree.Create(w.ctx, name, w.client); err != nil {
			return 0, nil, err
		}
		t := btree.New(name, w.client)
		if name == "btree.insert" {
			return 600, func(i int) error {
				_, err := t.Insert(w.ctx, key(i), val[:8])
				return err
			}, nil
		}
		const keys = 2000
		for i := 0; i < keys; i++ {
			if _, err := t.Insert(w.ctx, key(i), val[:8]); err != nil {
				return 0, nil, err
			}
		}
		return 2000, func(i int) error {
			_, ok, err := t.Lookup(w.ctx, key(i*7919%keys))
			if err == nil && !ok {
				err = fmt.Errorf("key %d not found", i*7919%keys)
			}
			return err
		}, nil

	case "store.node_get", "store.node_condput":
		// The node's whole request path: decode, dedup window, memtable,
		// encode — called directly, without the network around it.
		var resp wire.StoreResponse
		call := func(op wire.Op) (wire.Result, error) {
			req := wire.StoreRequest{Epoch: 1, Client: name, Ops: []wire.Op{op}}
			if err := resp.DecodeFrom(w.handler(w.ctx, req.Encode())); err != nil {
				return wire.Result{}, err
			}
			if resp.Status != wire.StatusOK || len(resp.Results) != 1 || resp.Results[0].Status != wire.StatusOK {
				return wire.Result{}, fmt.Errorf("store answered %v %+v", resp.Status, resp.Results)
			}
			return resp.Results[0], nil
		}
		seq := uint64(0)
		put := func(stamp uint64) (uint64, error) {
			seq++
			res, err := call(wire.Op{Code: wire.OpCondPut, Key: key(0), Val: val, Stamp: stamp, Seq: seq})
			return res.Stamp, err
		}
		stamp, err := put(0)
		if err != nil {
			return 0, nil, err
		}
		if name == "store.node_get" {
			return 10000, func(int) error {
				_, err := call(wire.Op{Code: wire.OpGet, Key: key(0)})
				return err
			}, nil
		}
		return 2000, func(int) error {
			var err error
			stamp, err = put(stamp)
			return err
		}, nil

	case "durable.wal_append_sync":
		wal := durable.OpenWAL(durable.NewBlob(durable.MemProfile()), "probe", durable.WALConfig{}, 0, 1)
		recs := make([]durable.Record, 1)
		return 20000, func(i int) error {
			recs[0] = durable.Record{Part: 1, Mut: wire.Mutation{Key: key(0), Val: val, Stamp: uint64(i + 1)}}
			return wal.Commit(w.ctx, recs)
		}, nil

	case "resil.window_commit":
		// One client with a full window: every commit evicts the oldest
		// entry, as in a long run.
		win := resil.NewWindow(0)
		return 4000, func(i int) error {
			seq := uint64(i + 1)
			if _, st := win.Begin("pn0#1", seq); st != resil.StateNew {
				return fmt.Errorf("token %d classified %v", seq, st)
			}
			win.Commit("pn0#1", seq, val[:32])
			return nil
		}, nil

	case "sim.sleep_wake":
		return 100000, func(int) error { w.ctx.Sleep(time.Microsecond); return nil }, nil

	case "relational.row_codec":
		var schema *relational.TableSchema
		for _, s := range tpcc.Schemas() {
			if s.Name == "customer" {
				schema = s
			}
		}
		if schema == nil {
			return 0, nil, fmt.Errorf("no customer table in the TPC-C schema")
		}
		row := make(relational.Row, len(schema.Cols))
		for i, c := range schema.Cols {
			switch c.Type {
			case relational.TInt64:
				row[i] = relational.I64(int64(1000 + i))
			case relational.TFloat64:
				row[i] = relational.F64(float64(i) * 1.5)
			case relational.TString:
				row[i] = relational.Str("BARBARBAR-customer-field")
			case relational.TBytes:
				row[i] = relational.Bytes(val[:16])
			default:
				row[i] = relational.BoolV(true)
			}
		}
		return 50000, func(int) error {
			b, err := relational.EncodeRow(schema, row)
			if err != nil {
				return err
			}
			r, err := relational.DecodeRow(schema, b)
			sink = r
			return err
		}, nil
	}
	return 0, nil, fmt.Errorf("unknown probe")
}
