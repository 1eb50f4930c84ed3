// Package core implements the processing node (PN) of Tell — the paper's
// primary contribution: transactional query processing on shared data
// (§4, §5). A PN executes transactions under distributed snapshot
// isolation: versioned reads against a snapshot descriptor, buffered
// writes, LL/SC-based conflict detection at commit, index maintenance on
// the shared latch-free B+trees, and both eager and lazy garbage
// collection. PNs share all data: any PN can execute any transaction.
package core

import (
	"fmt"

	"tell/internal/btree"
	"tell/internal/env"
	"tell/internal/relational"
	"tell/internal/sanitize"
	"tell/internal/store"
)

// tableIDCounterKey allocates table ids in the shared catalog.
const tableIDCounterKey = "sys/tableid"

// TableInfo is a PN's handle to one table: schema plus index-tree handles.
type TableInfo struct {
	Schema *relational.TableSchema
	PK     *btree.Tree
	Sec    map[string]*btree.Tree
}

// PKKey builds the primary-key index key of a row.
func (t *TableInfo) PKKey(row relational.Row) []byte {
	return relational.IndexKeyFromRow(row, t.Schema.PKCols)
}

// Catalog resolves table names to TableInfo for one PN. Schemas live in the
// shared store, so every PN sees the same catalog.
type Catalog struct {
	sc      *store.Client
	mu      sanitize.Mutex
	tables  map[string]*TableInfo
	caching bool
}

// NewCatalog creates a catalog over the given store client. caching toggles
// inner-node caching on the index handles.
func NewCatalog(sc *store.Client, caching bool) *Catalog {
	c := &Catalog{sc: sc, tables: make(map[string]*TableInfo), caching: caching}
	c.mu.SetName("core.Catalog.mu")
	return c
}

// CreateTable registers a new table in the shared catalog and creates its
// index trees. If the table already exists (any PN may race on this), the
// existing definition is opened instead.
func (c *Catalog) CreateTable(ctx env.Ctx, schema *relational.TableSchema) (*TableInfo, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	id, err := c.sc.CounterAdd(ctx, []byte(tableIDCounterKey), 1)
	if err != nil {
		return nil, err
	}
	s := *schema
	s.ID = uint32(id)
	if _, err := c.sc.CondPut(ctx, relational.SchemaKey(s.Name), s.Encode(), 0); err != nil {
		if err == store.ErrConflict {
			return c.OpenTable(ctx, s.Name)
		}
		return nil, err
	}
	if err := btree.Create(ctx, relational.PKIndexName(s.Name), c.sc); err != nil {
		return nil, err
	}
	for _, ix := range s.Indexes {
		if err := btree.Create(ctx, relational.SecIndexName(s.Name, ix.Name), c.sc); err != nil {
			return nil, err
		}
	}
	// Initialize the rid counter.
	if _, err := c.sc.CounterAdd(ctx, relational.RidCounterKey(s.ID), 0); err != nil {
		return nil, err
	}
	return c.open(&s), nil
}

// OpenTable loads an existing table definition.
func (c *Catalog) OpenTable(ctx env.Ctx, name string) (*TableInfo, error) {
	c.mu.Lock()
	if t, ok := c.tables[name]; ok {
		c.mu.Unlock()
		return t, nil
	}
	c.mu.Unlock()
	raw, _, err := c.sc.Get(ctx, relational.SchemaKey(name))
	if err != nil {
		if err == store.ErrNotFound {
			return nil, fmt.Errorf("core: table %q does not exist", name)
		}
		return nil, err
	}
	s, err := relational.DecodeSchema(raw)
	if err != nil {
		return nil, err
	}
	return c.open(s), nil
}

func (c *Catalog) open(s *relational.TableSchema) *TableInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, ok := c.tables[s.Name]; ok {
		return t
	}
	t := &TableInfo{Schema: s, Sec: make(map[string]*btree.Tree)}
	t.PK = btree.New(relational.PKIndexName(s.Name), c.sc)
	t.PK.CacheInner = c.caching
	for _, ix := range s.Indexes {
		tr := btree.New(relational.SecIndexName(s.Name, ix.Name), c.sc)
		tr.CacheInner = c.caching
		t.Sec[ix.Name] = tr
	}
	c.tables[s.Name] = t
	return t
}
