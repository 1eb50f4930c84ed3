package commitmgr

import (
	"fmt"

	"tell/internal/mvcc"
	"tell/internal/wire"
)

// Grouped CM protocol (cmStartGroup). One round trip carries everything a
// processing node owes or wants from its commit manager: pending
// finish()/abort notifications ride along, several concurrent start() calls
// share one descriptor fetch, and the descriptor itself is delta-encoded
// against the last one the client acknowledged. Steady state this replaces
// the ≥2 messages per transaction of the split protocol (one start, one
// finished) with a fraction of one.

// Bounds on untrusted grouped requests; a legitimate client stays far below
// both (its window is maxGroup starts and maxGroupFins pending finishes).
const (
	maxGroupCount = 4096
	maxGroupFins  = 4096
)

// FinNote is one piggybacked finish notification: setCommitted/setAborted
// (§4.2) folded into the next start() round trip.
type FinNote struct {
	TID       uint64
	Committed bool
}

// StartGroupReq asks for Count transaction starts and delivers pending
// finish notifications in the same message.
type StartGroupReq struct {
	// Client is a stable identity for descriptor delta tracking and
	// exactly-once dedup ("" opts out: the response always carries the
	// full descriptor and duplicates may re-execute).
	Client string
	// Seq is the idempotency token for this request (0 = none). Retries
	// resend the identical bytes; the manager executes each (Client, Seq)
	// at most once and replays the cached response to duplicates, so a
	// retried group cannot leak a second tid allocation.
	Seq uint64
	// AckServer/AckSeq identify the last descriptor this client applied:
	// the id of the manager that sent it and its per-client sequence
	// number. The manager sends a delta only when both match its own
	// memory — a fail-over or lost response breaks the chain and forces a
	// full resync. AckSeq 0 means "no base, send full".
	AckServer string
	AckSeq    uint64
	// Count is how many tids the client wants (one per coalesced start()).
	// May be zero for a pure finish flush.
	Count uint64
	Fins  []FinNote
}

// Encode serializes the request.
func (m *StartGroupReq) Encode() []byte {
	w := wire.NewWriter(64 + 4*len(m.Fins))
	w.Byte(byte(wire.KindCMReq))
	w.Byte(byte(cmStartGroup))
	w.String(m.Client)
	w.Uvarint(m.Seq)
	w.String(m.AckServer)
	w.Uvarint(m.AckSeq)
	w.Uvarint(m.Count)
	w.Uvarint(uint64(len(m.Fins)))
	for i := range m.Fins {
		w.Uvarint(m.Fins[i].TID)
		w.Bool(m.Fins[i].Committed)
	}
	return w.Bytes()
}

// DecodeStartGroupReq parses an encoded StartGroupReq.
func DecodeStartGroupReq(raw []byte) (*StartGroupReq, error) {
	r := wire.NewReader(raw)
	if wire.Kind(r.Byte()) != wire.KindCMReq || cmSub(r.Byte()) != cmStartGroup {
		return nil, fmt.Errorf("commitmgr: not a grouped start request")
	}
	m := &StartGroupReq{
		Client:    r.String(),
		Seq:       r.Uvarint(),
		AckServer: r.String(),
		AckSeq:    r.Uvarint(),
		Count:     r.Uvarint(),
	}
	n := r.Count(2)
	for i := 0; i < n; i++ {
		m.Fins = append(m.Fins, FinNote{TID: r.Uvarint(), Committed: r.Bool()})
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if m.Count > maxGroupCount || len(m.Fins) > maxGroupFins {
		return nil, fmt.Errorf("commitmgr: grouped request too large (%d starts, %d fins)",
			m.Count, len(m.Fins))
	}
	return m, nil
}

// StartGroupResp answers a grouped start: one tid per requested start, one
// descriptor (full or delta) shared by all of them, and the lav.
type StartGroupResp struct {
	Status wire.Status
	// TIDs are the allocated transaction ids, ascending (gap-encoded on the
	// wire; interleaved allocation makes the gaps regular and tiny).
	TIDs []uint64
	// Server/Seq is what the client echoes as AckServer/AckSeq next time.
	Server string
	Seq    uint64
	// Full selects which descriptor form follows: the whole snapshot, or a
	// delta against the client's acknowledged one.
	Full  bool
	Snap  *mvcc.Snapshot
	Delta *mvcc.SnapshotDelta
	Lav   uint64
}

// Encode serializes the response. Failed responses (Status != OK) carry no
// payload: TIDs, Server, Seq, Full, Snap, Delta and Lav are encoded only on
// the success path.
func (m *StartGroupResp) Encode() []byte {
	w := wire.GetWriter()
	w.Byte(byte(wire.KindCMResp))
	w.Byte(byte(cmStartGroup))
	w.Byte(byte(m.Status))
	if m.Status != wire.StatusOK {
		return w.Finish()
	}
	w.Uvarint(uint64(len(m.TIDs)))
	var prev uint64
	for i, t := range m.TIDs {
		if i == 0 {
			w.Uvarint(t)
		} else {
			w.Uvarint(t - prev)
		}
		prev = t
	}
	w.String(m.Server)
	w.Uvarint(m.Seq)
	w.Bool(m.Full)
	if m.Full {
		m.Snap.EncodeTo(w)
	} else {
		m.Delta.EncodeTo(w)
	}
	w.Uvarint(m.Lav)
	return w.Finish()
}

// DecodeStartGroupResp parses an encoded StartGroupResp.
func DecodeStartGroupResp(raw []byte) (*StartGroupResp, error) {
	r := wire.NewReader(raw)
	if wire.Kind(r.Byte()) != wire.KindCMResp || cmSub(r.Byte()) != cmStartGroup {
		return nil, fmt.Errorf("commitmgr: not a grouped start response")
	}
	m := &StartGroupResp{Status: wire.Status(r.Byte())}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if m.Status != wire.StatusOK {
		return m, r.Close()
	}
	n := r.Count(1)
	var prev uint64
	for i := 0; i < n; i++ {
		d := r.Uvarint()
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		m.TIDs = append(m.TIDs, prev)
	}
	m.Server = r.String()
	m.Seq = r.Uvarint()
	m.Full = r.Bool()
	var err error
	if m.Full {
		m.Snap, err = mvcc.DecodeSnapshotFrom(r)
	} else {
		m.Delta, err = mvcc.DecodeSnapshotDeltaFrom(r)
	}
	if err != nil {
		return nil, err
	}
	m.Lav = r.Uvarint()
	if err := r.Close(); err != nil {
		return nil, err
	}
	return m, nil
}
