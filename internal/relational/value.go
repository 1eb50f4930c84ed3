package relational

import (
	"encoding/binary"
	"fmt"
	"math"

	"tell/internal/wire"
)

// Value is one typed column value. Null is legal for any type.
type Value struct {
	T    ColType
	Null bool
	I    int64
	F    float64
	S    string
	B    []byte
	Bool bool
}

// Typed constructors.
func I64(v int64) Value    { return Value{T: TInt64, I: v} }
func F64(v float64) Value  { return Value{T: TFloat64, F: v} }
func Str(v string) Value   { return Value{T: TString, S: v} }
func Bytes(v []byte) Value { return Value{T: TBytes, B: v} }
func BoolV(v bool) Value   { return Value{T: TBool, Bool: v} }
func Null(t ColType) Value { return Value{T: t, Null: true} }

// String renders the value for debugging and the CLI.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.T {
	case TInt64:
		return fmt.Sprintf("%d", v.I)
	case TFloat64:
		return fmt.Sprintf("%g", v.F)
	case TString:
		return v.S
	case TBytes:
		return fmt.Sprintf("%x", v.B)
	case TBool:
		return fmt.Sprintf("%v", v.Bool)
	}
	return "?"
}

// Row is one relational tuple, positionally matching a schema's columns.
type Row []Value

// EncodeRow serializes a row against its schema.
func EncodeRow(s *TableSchema, row Row) ([]byte, error) {
	return AppendRow(make([]byte, 0, 16*len(row)), s, row)
}

// AppendRow appends the serialization of a row against its schema to dst.
func AppendRow(dst []byte, s *TableSchema, row Row) ([]byte, error) {
	if len(row) != len(s.Cols) {
		return nil, fmt.Errorf("relational: row has %d values, table %s has %d columns",
			len(row), s.Name, len(s.Cols))
	}
	w := wire.AppendWriter(dst)
	for i, v := range row {
		if v.T != s.Cols[i].Type {
			return nil, fmt.Errorf("relational: column %s.%s is %v, got %v",
				s.Name, s.Cols[i].Name, s.Cols[i].Type, v.T)
		}
		w.Bool(v.Null)
		if v.Null {
			continue
		}
		switch v.T {
		case TInt64:
			w.Varint(v.I)
		case TFloat64:
			w.U64(math.Float64bits(v.F))
		case TString:
			w.String(v.S)
		case TBytes:
			w.BytesN(v.B)
		case TBool:
			w.Bool(v.Bool)
		}
	}
	return w.Bytes(), nil
}

// DecodeRow parses a row against its schema.
func DecodeRow(s *TableSchema, b []byte) (Row, error) {
	r := wire.NewReader(b)
	row := make(Row, len(s.Cols))
	for i := range s.Cols {
		v := Value{T: s.Cols[i].Type, Null: r.Bool()}
		if !v.Null {
			switch v.T {
			case TInt64:
				v.I = r.Varint()
			case TFloat64:
				v.F = math.Float64frombits(r.U64())
			case TString:
				v.S = r.String()
			case TBytes:
				v.B = append([]byte(nil), r.BytesN()...)
			case TBool:
				v.Bool = r.Bool()
			}
		}
		row[i] = v
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	return row, nil
}

// --- Order-preserving index key encoding -----------------------------------
//
// Index keys must compare bytewise in the same order as their typed values,
// and composite keys must compare component-wise. Each component is
// self-terminating:
//
//	int64:   sign-flipped 8-byte big-endian
//	float64: IEEE bits, sign-massaged, 8-byte big-endian
//	string/bytes: 0x00 escaped as 0x00 0xFF, terminated by 0x00 0x00
//	bool:    one byte
//	null:    tag byte 0x00 (sorts before any value, which has tag 0x01)

// AppendKeyValue appends v's order-preserving encoding to dst.
func AppendKeyValue(dst []byte, v Value) []byte {
	if v.Null {
		return append(dst, 0x00)
	}
	dst = append(dst, 0x01)
	switch v.T {
	case TInt64:
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], uint64(v.I)^(1<<63))
		return append(dst, b[:]...)
	case TFloat64:
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all
		} else {
			bits |= 1 << 63 // positive: set sign
		}
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], bits)
		return append(dst, b[:]...)
	case TString:
		return appendEscaped(dst, []byte(v.S))
	case TBytes:
		return appendEscaped(dst, v.B)
	case TBool:
		if v.Bool {
			return append(dst, 1)
		}
		return append(dst, 0)
	}
	panic(fmt.Sprintf("relational: unknown type %v", v.T))
}

func appendEscaped(dst, s []byte) []byte {
	for _, b := range s {
		if b == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, b)
		}
	}
	return append(dst, 0x00, 0x00)
}

// EncodeKey builds a composite order-preserving key from values.
func EncodeKey(vals ...Value) []byte {
	var dst []byte
	for _, v := range vals {
		dst = AppendKeyValue(dst, v)
	}
	return dst
}

// IndexKeyFromRow builds the index key of a row for the given column set.
func IndexKeyFromRow(row Row, cols []int) []byte {
	return AppendIndexKey(nil, row, cols)
}

// AppendIndexKey appends the index key of a row for the given column set
// to dst.
func AppendIndexKey(dst []byte, row Row, cols []int) []byte {
	for _, c := range cols {
		dst = AppendKeyValue(dst, row[c])
	}
	return dst
}

// AppendRid appends a rid suffix to a secondary index key, making
// non-unique entries distinct.
func AppendRid(key []byte, rid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return append(key, b[:]...)
}

// RidFromIndexVal decodes an index entry's value (the rid).
func RidFromIndexVal(v []byte) uint64 {
	if len(v) != 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// RidToIndexVal encodes a rid as an index entry value.
func RidToIndexVal(rid uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], rid)
	return b[:]
}

// PrefixEnd returns the smallest key greater than every key with the given
// prefix, for range scans; nil means unbounded.
func PrefixEnd(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] < 0xFF {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}
