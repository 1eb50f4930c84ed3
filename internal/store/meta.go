package store

import (
	"fmt"

	"tell/internal/wire"
)

// The meta/control protocol carries cluster-management traffic: partition
// map lookups from clients, configuration pushes from the manager to the
// storage nodes, partition transfers during re-replication, and health
// pings. Frames are [KindMetaReq|KindMetaResp, subtype, payload].

type metaSub byte

const (
	metaGetMap metaSub = iota + 1
	metaConfigure
	metaTransfer
	metaAck
	metaMap
	// Live-migration subtypes (manager → storage node). Appended after the
	// original subtypes so every earlier byte value is stable on the wire.
	metaMigCopy   // source: bulk-copy pid to target (floor 0), reply floor
	metaMigDelta  // source: ship cells above floor to target, reply new floor
	metaMigFence  // source: fence pid, ship the final delta, reply floor
	metaMigFinish // source: clear the fence (commit or abort)
	metaMigAdopt  // target: journal adoption of pid ahead of the map push
	metaMigAck    // response: status + stamp floor + shipped count/bytes
	metaMigMedian // master: reply the median live-key hash in pid (split point)
)

func encodeMetaGetMap() []byte {
	return []byte{byte(wire.KindMetaReq), byte(metaGetMap)}
}

func encodeMetaConfigure(m *PartitionMap) []byte {
	w := wire.NewWriter(64)
	w.Byte(byte(wire.KindMetaReq))
	w.Byte(byte(metaConfigure))
	m.EncodeTo(w)
	return w.Bytes()
}

// encodeMetaTransfer asks a node to copy partition pid's data to target,
// which will then serve as a fresh replica.
func encodeMetaTransfer(pid uint64, target string) []byte {
	w := wire.NewWriter(32)
	w.Byte(byte(wire.KindMetaReq))
	w.Byte(byte(metaTransfer))
	w.Uvarint(pid)
	w.String(target)
	return w.Bytes()
}

func encodeMetaAck(st wire.Status) []byte {
	return []byte{byte(wire.KindMetaResp), byte(metaAck), byte(st)}
}

func encodeMetaMap(m *PartitionMap) []byte {
	w := wire.NewWriter(64)
	w.Byte(byte(wire.KindMetaResp))
	w.Byte(byte(metaMap))
	m.EncodeTo(w)
	return w.Bytes()
}

// encodeMigReq builds one migration control request. target is the copy
// destination for copy/delta/fence, the source address for adopt, and unused
// for finish (where floor!=0 signals an abort).
func encodeMigReq(sub metaSub, pid uint64, target string, floor uint64) []byte {
	w := wire.NewWriter(32)
	w.Byte(byte(wire.KindMetaReq))
	w.Byte(byte(sub))
	w.Uvarint(pid)
	w.String(target)
	w.Uvarint(floor)
	return w.Bytes()
}

// migAck is the decoded metaMigAck response: the shipped stamp floor (any
// cell written after the request has a stamp strictly above it) plus volume
// accounting for throttling and telemetry.
type migAck struct {
	Status wire.Status
	Floor  uint64
	Count  uint64
	Bytes  uint64
}

func encodeMigAck(a migAck) []byte {
	w := wire.NewWriter(24)
	w.Byte(byte(wire.KindMetaResp))
	w.Byte(byte(metaMigAck))
	w.Byte(byte(a.Status))
	w.Uvarint(a.Floor)
	w.Uvarint(a.Count)
	w.Uvarint(a.Bytes)
	return w.Bytes()
}

func decodeMigAck(b []byte) (migAck, error) {
	sub, r, err := decodeMetaResp(b)
	if err != nil {
		return migAck{}, err
	}
	if sub == metaAck {
		// A crashed node answers every meta request with a plain ack.
		return migAck{Status: wire.Status(r.Byte())}, r.Err()
	}
	if sub != metaMigAck {
		return migAck{}, fmt.Errorf("store: meta subtype %d is not a migration ack", sub)
	}
	a := migAck{Status: wire.Status(r.Byte()), Floor: r.Uvarint(), Count: r.Uvarint(), Bytes: r.Uvarint()}
	return a, r.Err()
}

func decodeMetaResp(b []byte) (metaSub, *wire.Reader, error) {
	r := wire.NewReader(b)
	if k := wire.Kind(r.Byte()); k != wire.KindMetaResp {
		return 0, nil, fmt.Errorf("store: kind %d is not a meta response", k)
	}
	return metaSub(r.Byte()), r, r.Err()
}

// decodeMapResp parses a metaMap response.
func decodeMapResp(b []byte) (*PartitionMap, error) {
	sub, r, err := decodeMetaResp(b)
	if err != nil {
		return nil, err
	}
	if sub != metaMap {
		return nil, fmt.Errorf("store: meta subtype %d is not a map", sub)
	}
	return DecodePartitionMapFrom(r)
}
