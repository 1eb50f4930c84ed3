package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the layers host CPU time is attributed to, in reporting
// order; each internal package maps to one of them (bucketOf).
var cpuBuckets = []string{
	"sim", "env", "transport", "wire", "store", "resil", "det", "btree", "mvcc",
	"core", "commitmgr", "durable", "relational", "tpcc", "telemetry",
	"runtime.gc", "runtime.other",
}

// bucketOf maps a tell/internal package to its bucket. Packages that are
// thin wrappers used from every layer (the sanitize mutexes) map to "", so
// the sample is charged to the caller above them.
func bucketOf(pkg string) string {
	switch pkg {
	case "trace", "obs", "metrics", "histcheck":
		return "telemetry"
	case "txlog":
		return "core"
	case "sanitize":
		return ""
	}
	for _, b := range cpuBuckets {
		if b == pkg {
			return b
		}
	}
	return ""
}

// cpuShares buckets the samples of a CPU profile (gzipped pprof protobuf, as
// runtime/pprof writes it) by the leaf-most tell/internal/<pkg> frame of each
// stack. Stacks with no such frame are the collector's (runtime.gc) or the
// rest of the runtime and the benchmark itself (runtime.other). The shares
// sum to 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range stacks {
		shares[stackBucket(s.funcs)] += float64(s.value)
		total += float64(s.value)
	}
	if total == 0 {
		return nil, errors.New("CPU profile holds no samples")
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// stackBucket classifies one stack, given leaf first.
func stackBucket(funcs []string) string {
	const prefix = "tell/internal/"
	gc := false
	for _, f := range funcs {
		if rest, ok := strings.CutPrefix(f, prefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			if b := bucketOf(pkg); b != "" {
				return b
			}
		}
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.(*gc") ||
			f == "runtime.scanobject" || f == "runtime.greyobject" || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			gc = true
		}
	}
	if gc {
		return "runtime.gc"
	}
	return "runtime.other"
}

// stack is one profile sample: function names leaf first, and its weight.
type stack struct {
	funcs []string
	value int64
}

// parseProfile reads the few fields of profile.proto the bucketing needs:
// samples (location ids, last value), locations (lines -> function ids),
// functions (name) and the string table.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					// The last value of a CPU sample is its CPU nanoseconds.
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("CPU profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message. Varint fields arrive
// in v, length-delimited ones in b; fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		tag, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		num, wt := int(tag>>3), tag&7
		var v uint64
		var b []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wt)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's payload: the packed run in
// b, or the single unpacked value v when b is nil.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
