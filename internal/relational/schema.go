// Package relational maps relational data onto the key-value model (§5.1):
// table schemas, a typed row codec, record identifiers, and the
// order-preserving key encodings used by the primary and secondary B+tree
// indexes. Every relational row is stored as one key-value pair whose key
// is a unique numeric record identifier (rid) and whose value is the
// serialized set of all row versions (package mvcc).
package relational

import (
	"encoding/binary"
	"fmt"

	"tell/internal/wire"
)

// ColType is a column's data type.
type ColType byte

const (
	TInt64 ColType = iota + 1
	TFloat64
	TString
	TBytes
	TBool
)

func (t ColType) String() string {
	switch t {
	case TInt64:
		return "INT64"
	case TFloat64:
		return "FLOAT64"
	case TString:
		return "STRING"
	case TBytes:
		return "BYTES"
	case TBool:
		return "BOOL"
	}
	return fmt.Sprintf("ColType(%d)", byte(t))
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// IndexSchema describes a secondary index over column positions.
type IndexSchema struct {
	Name string
	Cols []int
}

// TableSchema describes a table: columns, the primary key (a prefix-free
// ordered set of column positions) and secondary indexes.
type TableSchema struct {
	Name    string
	ID      uint32
	Cols    []Column
	PKCols  []int
	Indexes []IndexSchema
}

// ColIndex returns the position of the named column.
func (s *TableSchema) ColIndex(name string) (int, bool) {
	for i := range s.Cols {
		if s.Cols[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// Validate checks internal consistency.
func (s *TableSchema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("relational: table needs a name")
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("relational: table %s has no columns", s.Name)
	}
	seen := make(map[string]bool)
	for _, c := range s.Cols {
		if seen[c.Name] {
			return fmt.Errorf("relational: duplicate column %s.%s", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	if len(s.PKCols) == 0 {
		return fmt.Errorf("relational: table %s has no primary key", s.Name)
	}
	check := func(cols []int, what string) error {
		for _, i := range cols {
			if i < 0 || i >= len(s.Cols) {
				return fmt.Errorf("relational: %s of %s references column %d", what, s.Name, i)
			}
		}
		return nil
	}
	if err := check(s.PKCols, "primary key"); err != nil {
		return err
	}
	idxNames := make(map[string]bool)
	for _, ix := range s.Indexes {
		if ix.Name == "" || idxNames[ix.Name] {
			return fmt.Errorf("relational: bad index name %q on %s", ix.Name, s.Name)
		}
		idxNames[ix.Name] = true
		if err := check(ix.Cols, "index "+ix.Name); err != nil {
			return err
		}
	}
	return nil
}

// Encode serializes the schema for the shared catalog.
func (s *TableSchema) Encode() []byte {
	w := wire.NewWriter(64)
	w.String(s.Name)
	w.U32(s.ID)
	w.Uvarint(uint64(len(s.Cols)))
	for _, c := range s.Cols {
		w.String(c.Name)
		w.Byte(byte(c.Type))
	}
	w.Uvarint(uint64(len(s.PKCols)))
	for _, i := range s.PKCols {
		w.Uvarint(uint64(i))
	}
	w.Uvarint(uint64(len(s.Indexes)))
	for _, ix := range s.Indexes {
		w.String(ix.Name)
		w.Uvarint(uint64(len(ix.Cols)))
		for _, i := range ix.Cols {
			w.Uvarint(uint64(i))
		}
	}
	return w.Bytes()
}

// DecodeSchema parses a stored schema.
func DecodeSchema(b []byte) (*TableSchema, error) {
	r := wire.NewReader(b)
	s := &TableSchema{Name: r.String(), ID: r.U32()}
	nc := r.Count(2)
	s.Cols = make([]Column, nc)
	for i := range s.Cols {
		s.Cols[i].Name = r.String()
		s.Cols[i].Type = ColType(r.Byte())
	}
	np := r.Count(1)
	for i := 0; i < np; i++ {
		s.PKCols = append(s.PKCols, int(r.Uvarint()))
	}
	ni := r.Count(1)
	for i := 0; i < ni; i++ {
		ix := IndexSchema{Name: r.String()}
		nx := r.Count(1)
		for j := 0; j < nx; j++ {
			ix.Cols = append(ix.Cols, int(r.Uvarint()))
		}
		s.Indexes = append(s.Indexes, ix)
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return s, nil
}

// Store key layout for the relational layer.

// SchemaKey is where a table's schema lives in the shared catalog.
func SchemaKey(name string) []byte { return []byte("schema/" + name) }

// RecordKey is the store key of a row: "d/<tableID>/<rid BE>". One row, one
// key-value pair (§5.1).
func RecordKey(tableID uint32, rid uint64) []byte {
	return AppendRecordKey(make([]byte, 0, 16), tableID, rid)
}

// AppendRecordKey appends the record key of (tableID, rid) to k.
func AppendRecordKey(k []byte, tableID uint32, rid uint64) []byte {
	k = append(k, 'd', '/')
	k = binary.BigEndian.AppendUint32(k, tableID)
	k = append(k, '/')
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return append(k, b[:]...)
}

// RidFromRecordKey recovers the rid from a record key.
func RidFromRecordKey(key []byte) (uint64, bool) {
	if len(key) != 15 || key[0] != 'd' || key[1] != '/' || key[6] != '/' {
		return 0, false
	}
	return binary.BigEndian.Uint64(key[7:]), true
}

// ParseRecordKey recovers both the table id and rid from a record key.
func ParseRecordKey(key []byte) (tableID uint32, rid uint64, ok bool) {
	if len(key) != 15 || key[0] != 'd' || key[1] != '/' || key[6] != '/' {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(key[2:6]), binary.BigEndian.Uint64(key[7:]), true
}

// RecordPrefix returns the scan bounds covering all records of a table.
func RecordPrefix(tableID uint32) (lo, hi []byte) {
	lo = RecordKey(tableID, 0)[:7]
	return lo, PrefixEnd(lo)
}

// RidCounterKey is the rid-allocation counter of a table. Rids are
// monotonically incremented numeric values (§5.1).
func RidCounterKey(tableID uint32) []byte {
	return []byte(fmt.Sprintf("t/%d/ridctr", tableID))
}

// PKIndexName is the B+tree holding primary key → rid.
func PKIndexName(table string) string { return "pk:" + table }

// SecIndexName is the B+tree of a secondary index.
func SecIndexName(table, index string) string { return "ix:" + table + ":" + index }
