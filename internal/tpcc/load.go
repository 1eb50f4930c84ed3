package tpcc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"

	"tell/internal/btree"
	"tell/internal/mvcc"
	"tell/internal/relational"
	"tell/internal/store"
)

// loadTID is the version number of bulk-loaded rows: 0 is visible in every
// snapshot (x ≤ b holds for any base).
const loadTID = 0

// Loaded describes the populated database: the schemas with their assigned
// table ids and the row counts.
type Loaded struct {
	Config  Config
	Schemas map[string]*relational.TableSchema
	Rows    int
	Bytes   int
}

// Load populates a storage cluster with the TPC-C dataset, writing records,
// indexes, schemas and counters through the bulk-load path (the network
// path would dominate experiment set-up time without exercising anything
// the experiments measure; see store.Node.BulkLoad).
func Load(cluster *store.Cluster, cfg Config) (*Loaded, error) {
	cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))
	schemas := Schemas()
	out := &Loaded{Config: cfg, Schemas: make(map[string]*relational.TableSchema)}

	// Assign table ids 1..n and persist the catalog.
	for i, s := range schemas {
		s.ID = uint32(i + 1)
		out.Schemas[s.Name] = s
		if err := cluster.BulkLoad(relational.SchemaKey(s.Name), s.Encode()); err != nil {
			return nil, err
		}
	}
	if err := cluster.BulkLoadCounter([]byte("sys/tableid"), int64(len(schemas))); err != nil {
		return nil, err
	}

	l := &loader{cluster: cluster, cfg: cfg, rng: rng, out: out}
	for _, build := range []func() error{
		l.loadItems, l.loadWarehouses,
	} {
		if err := build(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// loader accumulates per-table state during population.
type loader struct {
	cluster *store.Cluster
	cfg     Config
	rng     *rand.Rand
	out     *Loaded
}

// tableLoader streams rows of one table and builds its indexes.
type tableLoader struct {
	l       *loader
	schema  *relational.TableSchema
	nextRid uint64
	pk      indexEntries
	secs    []indexEntries // parallel to schema.Indexes
}

func (l *loader) table(name string) *tableLoader {
	t := &tableLoader{l: l, schema: l.out.Schemas[name]}
	t.secs = make([]indexEntries, len(t.schema.Indexes))
	return t
}

// add stores one row and collects its index entries.
func (t *tableLoader) add(row relational.Row) error {
	data, err := relational.EncodeRow(t.schema, row)
	if err != nil {
		return err
	}
	t.nextRid++
	rid := t.nextRid
	rec := mvcc.NewRecord(loadTID, data)
	val := rec.Encode()
	if err := t.l.cluster.BulkLoad(relational.RecordKey(t.schema.ID, rid), val); err != nil {
		return err
	}
	t.l.out.Rows++
	t.l.out.Bytes += len(val)
	t.pk.add(row, t.schema.PKCols, rid, false)
	for i, ix := range t.schema.Indexes {
		t.secs[i].add(row, ix.Cols, rid, true)
	}
	return nil
}

// finish sorts and bulk-builds the table's indexes and sets its rid counter.
func (t *tableLoader) finish() error {
	if err := t.pk.build(relational.PKIndexName(t.schema.Name), t.l.cluster); err != nil {
		return fmt.Errorf("tpcc: pk index of %s: %w", t.schema.Name, err)
	}
	for i, ix := range t.schema.Indexes {
		if err := t.secs[i].build(relational.SecIndexName(t.schema.Name, ix.Name), t.l.cluster); err != nil {
			return fmt.Errorf("tpcc: index %s of %s: %w", ix.Name, t.schema.Name, err)
		}
	}
	return t.l.cluster.BulkLoadCounter(relational.RidCounterKey(t.schema.ID), int64(t.nextRid))
}

// indexEntries collects one index's entries until its table is finished:
// the keys back to back in one arena (ends[i] closes key i) and the 8-byte
// rid values in another. Hundreds of thousands of entries then live in a
// few large slices rather than three small allocations each.
type indexEntries struct {
	keys []byte
	ends []uint32
	vals []byte
}

// add appends the entry of row for the index on cols; a secondary index
// key carries the rid as a suffix to keep non-unique keys distinct.
func (e *indexEntries) add(row relational.Row, cols []int, rid uint64, withRid bool) {
	e.keys, e.ends, e.vals = grow(e.keys, 64), grow(e.ends, 1), grow(e.vals, 8)
	for _, c := range cols {
		e.keys = relational.AppendKeyValue(e.keys, row[c])
	}
	if withRid {
		e.keys = relational.AppendRid(e.keys, rid)
	}
	e.ends = append(e.ends, uint32(len(e.keys)))
	e.vals = binary.BigEndian.AppendUint64(e.vals, rid)
}

// grow makes room for n more elements in s by doubling its capacity:
// append's 1.25× steps for large slices would copy an arena of a few
// hundred thousand entries about five times its final size over a load.
func grow[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		s = slices.Grow(s, len(s)+n)
	}
	return s
}

func (e *indexEntries) entry(i int) (key, val []byte) {
	start := uint32(0)
	if i > 0 {
		start = e.ends[i-1]
	}
	return e.keys[start:e.ends[i]:e.ends[i]], e.vals[8*i : 8*i+8 : 8*i+8]
}

// build sorts the entries by key and bulk-builds the tree name from them.
func (e *indexEntries) build(name string, cluster *store.Cluster) error {
	perm := make([]int32, len(e.ends))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		ka, _ := e.entry(int(a))
		kb, _ := e.entry(int(b))
		return bytes.Compare(ka, kb)
	})
	return btree.BulkBuild(name, len(perm), func(i int) ([]byte, []byte) { return e.entry(int(perm[i])) },
		64, cluster.BulkLoad, cluster.BulkLoadCounter)
}

func (l *loader) loadItems() error {
	t := l.table(TItem)
	for i := 1; i <= l.cfg.Items(); i++ {
		row := relational.Row{
			relational.I64(int64(i)),
			relational.Str("item-" + randAlnum(l.rng, 4, 8)),
			relational.F64(1 + float64(l.rng.Intn(9900))/100),
			relational.Str(randData(l.rng)),
		}
		if err := t.add(row); err != nil {
			return err
		}
	}
	return t.finish()
}

func (l *loader) loadWarehouses() error {
	wh := l.table(TWarehouse)
	dist := l.table(TDistrict)
	cust := l.table(TCustomer)
	hist := l.table(THistory)
	ord := l.table(TOrders)
	nord := l.table(TNewOrder)
	ol := l.table(TOrderLine)
	stock := l.table(TStock)

	nCust := l.cfg.CustomersPerDistrict()
	nOrd := l.cfg.OrdersPerDistrict()
	for w := 1; w <= l.cfg.Warehouses; w++ {
		if err := wh.add(relational.Row{
			relational.I64(int64(w)),
			relational.Str(wName(w)),
			relational.F64(float64(l.rng.Intn(2000)) / 10000), // 0..0.2
			relational.F64(300000),
		}); err != nil {
			return err
		}
		// Stock: one row per item per warehouse.
		for i := 1; i <= l.cfg.Items(); i++ {
			if err := stock.add(relational.Row{
				relational.I64(int64(w)), relational.I64(int64(i)),
				relational.I64(int64(10 + l.rng.Intn(91))), // 10..100
				relational.I64(0), relational.I64(0), relational.I64(0),
				relational.Str(randData(l.rng)),
			}); err != nil {
				return err
			}
		}
		for d := 1; d <= DistrictsPerWarehouse; d++ {
			if err := dist.add(relational.Row{
				relational.I64(int64(w)), relational.I64(int64(d)),
				relational.Str(fmt.Sprintf("D%02d", d)),
				relational.F64(float64(l.rng.Intn(2000)) / 10000),
				relational.F64(30000),
				relational.I64(int64(nOrd + 1)),
			}); err != nil {
				return err
			}
			// Customers.
			for c := 1; c <= nCust; c++ {
				lastNum := c - 1
				if lastNum >= 1000 {
					lastNum = randLastNameNumber(l.rng)
				}
				credit := "GC"
				if l.rng.Intn(10) == 0 {
					credit = "BC"
				}
				if err := cust.add(relational.Row{
					relational.I64(int64(w)), relational.I64(int64(d)), relational.I64(int64(c)),
					relational.Str(randAlnum(l.rng, 6, 10)),
					relational.Str(LastName(lastNum % 1000)),
					relational.Str(credit),
					relational.F64(float64(l.rng.Intn(5000)) / 10000),
					relational.F64(-10), relational.F64(10),
					relational.I64(1), relational.I64(0),
					relational.Str(randAlnum(l.rng, 20, 40)),
				}); err != nil {
					return err
				}
				// One history row per customer. Loaded h_seq values are
				// negative so they can never collide with runtime rows,
				// whose h_seq is the (positive) transaction id.
				if err := hist.add(relational.Row{
					relational.I64(int64(w)), relational.I64(int64(d)), relational.I64(int64(-c)),
					relational.I64(int64(c)), relational.I64(int64(w)), relational.I64(int64(d)),
					relational.I64(0), relational.F64(10),
				}); err != nil {
					return err
				}
			}
			// Orders over a permutation of customers.
			perm := l.rng.Perm(nCust)
			deliveredUpTo := nOrd * 7 / 10
			for o := 1; o <= nOrd; o++ {
				olCnt := 5 + l.rng.Intn(11) // 5..15
				carrier := int64(0)
				if o <= deliveredUpTo {
					carrier = int64(1 + l.rng.Intn(10))
				}
				if err := ord.add(relational.Row{
					relational.I64(int64(w)), relational.I64(int64(d)), relational.I64(int64(o)),
					relational.I64(int64(perm[o-1] + 1)),
					relational.I64(0), relational.I64(carrier),
					relational.I64(int64(olCnt)), relational.I64(1),
				}); err != nil {
					return err
				}
				if o > deliveredUpTo {
					if err := nord.add(relational.Row{
						relational.I64(int64(w)), relational.I64(int64(d)), relational.I64(int64(o)),
					}); err != nil {
						return err
					}
				}
				for n := 1; n <= olCnt; n++ {
					deliveryD := int64(0)
					amount := 0.0
					if o <= deliveredUpTo {
						deliveryD = 1
					} else {
						amount = float64(1+l.rng.Intn(999899)) / 100
					}
					if err := ol.add(relational.Row{
						relational.I64(int64(w)), relational.I64(int64(d)), relational.I64(int64(o)),
						relational.I64(int64(n)),
						relational.I64(int64(1 + l.rng.Intn(l.cfg.Items()))),
						relational.I64(int64(w)),
						relational.I64(deliveryD),
						relational.I64(5),
						relational.F64(amount),
					}); err != nil {
						return err
					}
				}
			}
		}
	}
	for _, t := range []*tableLoader{wh, dist, cust, hist, ord, nord, ol, stock} {
		if err := t.finish(); err != nil {
			return err
		}
	}
	return nil
}
