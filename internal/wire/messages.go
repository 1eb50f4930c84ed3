package wire

import "fmt"

// Kind identifies the protocol family of a message; it is the first byte of
// every encoded payload.
type Kind byte

const (
	KindInvalid Kind = iota
	KindStoreReq
	KindStoreResp
	KindReplicate
	KindReplicateResp
	KindCMReq
	KindCMResp
	KindMetaReq
	KindMetaResp
	KindPing
	KindPong
	// 11 and 12 belonged to the retired base stats protocol. The slots stay
	// reserved so every later kind keeps its byte value in WAL segments,
	// journals and fuzz corpora.
	_
	_
	KindRecoverReq
	KindRecoverResp
	// KindStatsExtReq / KindStatsExtResp carry the extended telemetry
	// protocol: windowed series digests, per-range heat and flight-recorder
	// state (see statsext.go). Appended after the recovery kinds so every
	// earlier kind keeps its byte value on the wire.
	KindStatsExtReq
	KindStatsExtResp
)

// PeekKind returns the kind byte of an encoded message.
func PeekKind(b []byte) Kind {
	if len(b) == 0 {
		return KindInvalid
	}
	return Kind(b[0])
}

// OpCode is a storage operation type.
type OpCode byte

const (
	OpGet OpCode = iota + 1
	OpPut
	OpCondPut
	OpDelete
	OpCounterAdd
	OpScan
	// OpScanFiltered is the push-down scan (§5.2): the storage node
	// evaluates a selection predicate and projection against the visible
	// version of each record and returns only matching, projected rows.
	// The spec (schema, snapshot, predicate, projection) travels in Val.
	OpScanFiltered
)

func (o OpCode) String() string {
	switch o {
	case OpGet:
		return "Get"
	case OpPut:
		return "Put"
	case OpCondPut:
		return "CondPut"
	case OpDelete:
		return "Delete"
	case OpCounterAdd:
		return "CounterAdd"
	case OpScan:
		return "Scan"
	case OpScanFiltered:
		return "ScanFiltered"
	}
	return fmt.Sprintf("OpCode(%d)", byte(o))
}

// IsWrite reports whether the operation mutates storage state.
func (o OpCode) IsWrite() bool {
	switch o {
	case OpPut, OpCondPut, OpDelete, OpCounterAdd:
		return true
	}
	return false
}

// Status is the outcome of an operation or request.
type Status byte

const (
	StatusOK Status = iota + 1
	// StatusConflict: a conditional operation failed because the cell's
	// stamp did not match — the LL/SC store-conditional failed.
	StatusConflict
	StatusNotFound
	// StatusWrongPartition: the contacted node does not own the key; the
	// client must refresh its partition map.
	StatusWrongPartition
	StatusUnavailable
	StatusError
	// StatusOverload: the server's admission gate shed the request before
	// execution (bounded inflight + queue deadline, see internal/resil).
	// Always retryable — the request was never run.
	StatusOverload
	// StatusStaleMap: the operation targeted a range the contacted node has
	// fenced for live migration (or no longer owns after a cutover the
	// client has not seen). The write was NOT executed. Always retryable:
	// the client must install a newer partition map (the response usually
	// piggybacks one) and re-route. Appended after StatusOverload so every
	// earlier status keeps its byte value on the wire.
	StatusStaleMap
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusConflict:
		return "Conflict"
	case StatusNotFound:
		return "NotFound"
	case StatusWrongPartition:
		return "WrongPartition"
	case StatusUnavailable:
		return "Unavailable"
	case StatusError:
		return "Error"
	case StatusOverload:
		return "Overload"
	case StatusStaleMap:
		return "StaleMap"
	}
	return fmt.Sprintf("Status(%d)", byte(s))
}

// Op is one storage operation. Which fields are meaningful depends on Code:
//
//	Get:        Key, Replica
//	Put:        Key, Val, Seq
//	CondPut:    Key, Val, Stamp (0 = key must not exist: an insert), Seq
//	Delete:     Key, Stamp (0 = unconditional), Seq
//	CounterAdd: Key, Delta, Seq
//	Scan:       Key (inclusive low), EndKey (exclusive high), Limit, Reverse
type Op struct {
	Code    OpCode
	Key     []byte
	Val     []byte
	Stamp   uint64
	Delta   int64
	EndKey  []byte
	Limit   uint32
	Reverse bool
	// Seq is the idempotency token of a write op: together with the
	// request's Client it identifies the op across retried and duplicated
	// deliveries, letting the node dedup and replay the cached Result
	// (exactly-once execution, see internal/resil). 0 = no token.
	Seq uint64
	// Replica marks a Get the client deliberately routed to a replica of
	// the key's partition because the master's circuit breaker is open.
	// The serving node answers from its replica copy instead of
	// redirecting with StatusWrongPartition.
	Replica bool
}

// Pair is one key-value result of a scan.
type Pair struct {
	Key   []byte
	Val   []byte
	Stamp uint64
}

// Result is the outcome of one Op.
type Result struct {
	Status Status
	Val    []byte // Get: current value
	Stamp  uint64 // Get/Put/CondPut: cell stamp after the operation
	Count  int64  // CounterAdd: counter value after the add
	Pairs  []Pair // Scan
	// retried is a client-side annotation (never serialized): the result
	// came from a retry, so a previous attempt may have been applied and
	// its response lost. Conditional writes reporting a conflict here are
	// ambiguous and must be read back. Unexported so the wirecomplete
	// analyzer can prove every exported field crosses the wire.
	retried bool
}

// MarkRetried flags the result as coming from a retried request.
func (r *Result) MarkRetried() { r.retried = true }

// WasRetried reports whether the result came from a retried request, making
// a Conflict status ambiguous (the first attempt may have been applied).
func (r *Result) WasRetried() bool { return r.retried }

// StoreRequest is a batch of operations addressed to one storage node. The
// paper's aggressive batching (§5.1) means a request routinely carries
// operations from several transactions.
type StoreRequest struct {
	Epoch uint64 // partition-map epoch known to the client
	// Client identifies the sending client for idempotency-token dedup
	// (paired with each write Op's Seq). Empty = no dedup.
	Client string
	Ops    []Op
}

// StoreResponse carries one Result per request Op, in order. If Status is
// not OK the results may be empty (for example StatusWrongPartition, where
// Epoch carries the node's newer partition-map epoch).
type StoreResponse struct {
	Status  Status
	Epoch   uint64
	Results []Result
	// Map optionally piggybacks the node's full encoded partition map
	// (PartitionMap.Encode bytes) when the node knows the client's map is
	// stale: the request's Epoch lagged the node's, or an op hit a range
	// fenced for migration (StatusStaleMap). Long-lived clients install it
	// and converge without a management-node round trip. Empty = absent.
	Map []byte
}

// Encode serializes the request. The buffer comes from the encode pool;
// hand it to PutBuf when its bytes are dead to close the loop (optional —
// see pool.go for the ownership rules).
func (m *StoreRequest) Encode() []byte {
	w := getWriter(m.encodedLen())
	w.Byte(byte(KindStoreReq))
	w.Uvarint(m.Epoch)
	w.String(m.Client)
	w.Uvarint(uint64(len(m.Ops)))
	for i := range m.Ops {
		encodeOp(w, &m.Ops[i])
	}
	return w.Finish()
}

// encodedLen is len(m.Encode()), computed without encoding, so that Encode
// can take one buffer of the right size instead of growing one.
func (m *StoreRequest) encodedLen() int {
	n := 1 + UvarintLen(m.Epoch) + bytesNLen(len(m.Client)) + UvarintLen(uint64(len(m.Ops)))
	for i := range m.Ops {
		n += opLen(&m.Ops[i])
	}
	return n
}

func encodeOp(w *Writer, op *Op) {
	w.Byte(byte(op.Code))
	w.BytesN(op.Key)
	switch op.Code {
	case OpGet:
		w.Bool(op.Replica)
	case OpPut:
		w.BytesN(op.Val)
		w.Uvarint(op.Seq)
	case OpCondPut:
		w.BytesN(op.Val)
		w.Uvarint(op.Stamp)
		w.Uvarint(op.Seq)
	case OpDelete:
		w.Uvarint(op.Stamp)
		w.Uvarint(op.Seq)
	case OpCounterAdd:
		w.Varint(op.Delta)
		w.Uvarint(op.Seq)
	case OpScan:
		w.BytesN(op.EndKey)
		w.Uvarint(uint64(op.Limit))
		w.Bool(op.Reverse)
	case OpScanFiltered:
		w.BytesN(op.EndKey)
		w.Uvarint(uint64(op.Limit))
		w.BytesN(op.Val)
	}
}

// opLen is the number of bytes encodeOp writes for op.
func opLen(op *Op) int {
	n := 1 + bytesNLen(len(op.Key))
	switch op.Code {
	case OpGet:
		n++
	case OpPut:
		n += bytesNLen(len(op.Val)) + UvarintLen(op.Seq)
	case OpCondPut:
		n += bytesNLen(len(op.Val)) + UvarintLen(op.Stamp) + UvarintLen(op.Seq)
	case OpDelete:
		n += UvarintLen(op.Stamp) + UvarintLen(op.Seq)
	case OpCounterAdd:
		n += varintLen(op.Delta) + UvarintLen(op.Seq)
	case OpScan:
		n += bytesNLen(len(op.EndKey)) + UvarintLen(uint64(op.Limit)) + 1
	case OpScanFiltered:
		n += bytesNLen(len(op.EndKey)) + UvarintLen(uint64(op.Limit)) + bytesNLen(len(op.Val))
	}
	return n
}

func decodeOp(r *Reader, op *Op) {
	op.Code = OpCode(r.Byte())
	op.Key = r.BytesN()
	switch op.Code {
	case OpGet:
		op.Replica = r.Bool()
	case OpPut:
		op.Val = r.BytesN()
		op.Seq = r.Uvarint()
	case OpCondPut:
		op.Val = r.BytesN()
		op.Stamp = r.Uvarint()
		op.Seq = r.Uvarint()
	case OpDelete:
		op.Stamp = r.Uvarint()
		op.Seq = r.Uvarint()
	case OpCounterAdd:
		op.Delta = r.Varint()
		op.Seq = r.Uvarint()
	case OpScan:
		op.EndKey = r.BytesN()
		op.Limit = uint32(r.Uvarint())
		op.Reverse = r.Bool()
	case OpScanFiltered:
		op.EndKey = r.BytesN()
		op.Limit = uint32(r.Uvarint())
		op.Val = r.BytesN()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("wire: unknown op code %d", op.Code)
		}
	}
}

// DecodeStoreRequest parses an encoded StoreRequest.
func DecodeStoreRequest(b []byte) (*StoreRequest, error) {
	m := new(StoreRequest)
	if err := m.DecodeFrom(b); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeFrom parses b into m, reusing m's Ops slice when it has capacity.
// Decoded slices alias b; reuse is only safe once the previous message's
// fields are no longer referenced.
func (m *StoreRequest) DecodeFrom(b []byte) error {
	var r Reader
	r.Reset(b)
	if k := Kind(r.Byte()); k != KindStoreReq {
		return fmt.Errorf("wire: kind %d is not a store request", k)
	}
	m.Epoch = r.Uvarint()
	m.Client = r.String()
	n := r.Count(2)
	if cap(m.Ops) >= n {
		m.Ops = m.Ops[:n]
	} else {
		m.Ops = make([]Op, n)
	}
	for i := range m.Ops {
		m.Ops[i] = Op{}
		decodeOp(&r, &m.Ops[i])
	}
	return r.Close()
}

// EncodeResult appends one Result in its standalone encoding — the same
// layout StoreResponse uses per entry. The dedup window caches write
// results in this form so a replayed response decodes byte-identically to
// the original.
func EncodeResult(w *Writer, res *Result) {
	w.Byte(byte(res.Status))
	w.BytesN(res.Val)
	w.Uvarint(res.Stamp)
	w.Varint(res.Count)
	w.Uvarint(uint64(len(res.Pairs)))
	for _, p := range res.Pairs {
		w.BytesN(p.Key)
		w.BytesN(p.Val)
		w.Uvarint(p.Stamp)
	}
}

// resultLen is the number of bytes EncodeResult writes for res.
func resultLen(res *Result) int {
	n := 1 + bytesNLen(len(res.Val)) + UvarintLen(res.Stamp) + varintLen(res.Count) +
		UvarintLen(uint64(len(res.Pairs)))
	for i := range res.Pairs {
		p := &res.Pairs[i]
		n += bytesNLen(len(p.Key)) + bytesNLen(len(p.Val)) + UvarintLen(p.Stamp)
	}
	return n
}

// DecodeResult reads one Result written by EncodeResult into res,
// overwriting all fields. Decoded slices alias the reader's buffer.
func DecodeResult(r *Reader, res *Result) {
	*res = Result{}
	res.Status = Status(r.Byte())
	res.Val = r.BytesN()
	res.Stamp = r.Uvarint()
	res.Count = r.Varint()
	np := r.Count(3)
	if np > 0 {
		res.Pairs = make([]Pair, np)
		for j := range res.Pairs {
			res.Pairs[j].Key = r.BytesN()
			res.Pairs[j].Val = r.BytesN()
			res.Pairs[j].Stamp = r.Uvarint()
		}
	}
}

// Encode serializes the response into a pool-backed buffer (see pool.go).
func (m *StoreResponse) Encode() []byte {
	w := getWriter(m.encodedLen())
	w.Byte(byte(KindStoreResp))
	w.Byte(byte(m.Status))
	w.Uvarint(m.Epoch)
	w.Uvarint(uint64(len(m.Results)))
	for i := range m.Results {
		EncodeResult(w, &m.Results[i])
	}
	w.BytesN(m.Map)
	return w.Finish()
}

// encodedLen is len(m.Encode()), computed without encoding.
func (m *StoreResponse) encodedLen() int {
	n := 2 + UvarintLen(m.Epoch) + UvarintLen(uint64(len(m.Results))) + bytesNLen(len(m.Map))
	for i := range m.Results {
		n += resultLen(&m.Results[i])
	}
	return n
}

// DecodeFrom parses b into m, reusing m's Results slice when it has
// capacity. The store client decodes one response per batch round trip into
// a long-lived struct this way, which removes the per-batch Results
// allocation. Decoded slices alias b.
func (m *StoreResponse) DecodeFrom(b []byte) error {
	var r Reader
	r.Reset(b)
	if k := Kind(r.Byte()); k != KindStoreResp {
		return fmt.Errorf("wire: kind %d is not a store response", k)
	}
	m.Status = Status(r.Byte())
	m.Epoch = r.Uvarint()
	n := r.Count(5)
	if cap(m.Results) >= n {
		m.Results = m.Results[:n]
	} else {
		m.Results = make([]Result, n)
	}
	for i := range m.Results {
		DecodeResult(&r, &m.Results[i])
	}
	m.Map = r.BytesN()
	return r.Close()
}

// Mutation is one applied write shipped from a partition master to its
// replicas. Stamp is the authoritative cell stamp assigned by the master;
// Deleted marks tombstones; Counter marks counter cells.
type Mutation struct {
	Key     []byte
	Val     []byte
	Stamp   uint64
	Deleted bool
	Counter bool
	CtrVal  int64
}

// ReplicateRequest ships a batch of mutations to one replica.
type ReplicateRequest struct {
	PartitionID uint64
	Mutations   []Mutation
}

// Encode serializes the replication request into a pool-backed buffer.
func (m *ReplicateRequest) Encode() []byte {
	w := GetWriter()
	w.Byte(byte(KindReplicate))
	w.Uvarint(m.PartitionID)
	w.Uvarint(uint64(len(m.Mutations)))
	for i := range m.Mutations {
		mu := &m.Mutations[i]
		w.BytesN(mu.Key)
		w.BytesN(mu.Val)
		w.Uvarint(mu.Stamp)
		w.Bool(mu.Deleted)
		w.Bool(mu.Counter)
		w.Varint(mu.CtrVal)
	}
	return w.Finish()
}

// DecodeReplicateRequest parses an encoded ReplicateRequest.
func DecodeReplicateRequest(b []byte) (*ReplicateRequest, error) {
	r := NewReader(b)
	if k := Kind(r.Byte()); k != KindReplicate {
		return nil, fmt.Errorf("wire: kind %d is not a replicate request", k)
	}
	m := &ReplicateRequest{PartitionID: r.Uvarint()}
	n := r.Count(6)
	m.Mutations = make([]Mutation, n)
	for i := range m.Mutations {
		mu := &m.Mutations[i]
		mu.Key = r.BytesN()
		mu.Val = r.BytesN()
		mu.Stamp = r.Uvarint()
		mu.Deleted = r.Bool()
		mu.Counter = r.Bool()
		mu.CtrVal = r.Varint()
	}
	return m, r.Close()
}

// ReplicateResponse acknowledges a replication batch.
type ReplicateResponse struct {
	Status Status
}

// Encode serializes the replication response.
func (m *ReplicateResponse) Encode() []byte {
	return []byte{byte(KindReplicateResp), byte(m.Status)}
}

// DecodeReplicateResponse parses an encoded ReplicateResponse.
func DecodeReplicateResponse(b []byte) (*ReplicateResponse, error) {
	r := NewReader(b)
	if k := Kind(r.Byte()); k != KindReplicateResp {
		return nil, fmt.Errorf("wire: kind %d is not a replicate response", k)
	}
	m := &ReplicateResponse{Status: Status(r.Byte())}
	return m, r.Close()
}

// RecoverAssign names the surviving node taking over one of a dead node's
// partitions; recovery workers route replayed records by this table.
type RecoverAssign struct {
	Pid  uint64
	Addr string
}

// RecoverRequest asks a surviving storage node to fetch and replay a shard
// of a dead node's durable objects (WAL segments and checkpoint chunks).
// The worker applies records for partitions it now masters directly and
// forwards the rest per the assignment table. One request carries a small
// object batch so each RPC stays within network timeouts.
type RecoverRequest struct {
	// Dead is the durable namespace (node address) being recovered.
	Dead    string
	Objects []string
	Assign  []RecoverAssign
}

// Encode serializes the recover request.
func (m *RecoverRequest) Encode() []byte {
	w := GetWriter()
	w.Byte(byte(KindRecoverReq))
	w.String(m.Dead)
	w.Uvarint(uint64(len(m.Objects)))
	for _, o := range m.Objects {
		w.String(o)
	}
	w.Uvarint(uint64(len(m.Assign)))
	for i := range m.Assign {
		w.Uvarint(m.Assign[i].Pid)
		w.String(m.Assign[i].Addr)
	}
	return w.Finish()
}

// DecodeRecoverRequest parses an encoded RecoverRequest.
func DecodeRecoverRequest(b []byte) (*RecoverRequest, error) {
	r := NewReader(b)
	if k := Kind(r.Byte()); k != KindRecoverReq {
		return nil, fmt.Errorf("wire: kind %d is not a recover request", k)
	}
	m := &RecoverRequest{Dead: r.String()}
	n := r.Count(1)
	m.Objects = make([]string, n)
	for i := range m.Objects {
		m.Objects[i] = r.String()
	}
	n = r.Count(2)
	m.Assign = make([]RecoverAssign, n)
	for i := range m.Assign {
		m.Assign[i].Pid = r.Uvarint()
		m.Assign[i].Addr = r.String()
	}
	return m, r.Close()
}

// RecoverResponse reports one worker's replay result: records routed and
// payload bytes read from the durable backend.
type RecoverResponse struct {
	Status  Status
	Records uint64
	Bytes   uint64
}

// Encode serializes the recover response.
func (m *RecoverResponse) Encode() []byte {
	w := GetWriter()
	w.Byte(byte(KindRecoverResp))
	w.Byte(byte(m.Status))
	w.Uvarint(m.Records)
	w.Uvarint(m.Bytes)
	return w.Finish()
}

// DecodeRecoverResponse parses an encoded RecoverResponse.
func DecodeRecoverResponse(b []byte) (*RecoverResponse, error) {
	r := NewReader(b)
	if k := Kind(r.Byte()); k != KindRecoverResp {
		return nil, fmt.Errorf("wire: kind %d is not a recover response", k)
	}
	m := &RecoverResponse{Status: Status(r.Byte())}
	m.Records = r.Uvarint()
	m.Bytes = r.Uvarint()
	return m, r.Close()
}
