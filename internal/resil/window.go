package resil

import (
	"fmt"
	"sort"

	"tell/internal/sanitize"
)

// BeginState is the dedup verdict for an incoming (client, seq) token.
type BeginState int

const (
	// StateNew: first sighting — process the request; the token is now
	// in-flight and a concurrent duplicate will see StateInFlight until
	// Commit or Abort.
	StateNew BeginState = iota
	// StateReplay: the request already completed — do not re-execute;
	// Begin returned a copy of the cached response to send back.
	StateReplay
	// StateInFlight: another handler is executing this very request
	// right now (a duplicate raced the original). The caller must answer
	// with a retryable status and NOT execute.
	StateInFlight
	// StateStale: the token is older than the window floor and its
	// cached response has been evicted. The original response was
	// produced long ago; answer retryable-unavailable. With a window
	// capacity larger than the client's maximum outstanding tokens this
	// only happens to duplicates delayed far beyond any retry deadline.
	StateStale
)

func (s BeginState) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReplay:
		return "replay"
	case StateInFlight:
		return "inflight"
	case StateStale:
		return "stale"
	}
	return fmt.Sprintf("BeginState(%d)", int(s))
}

// Window is a bounded per-client dedup memory giving a server exactly-once
// execution under duplicated and retried requests. Clients stamp mutating
// requests with (clientID, seq); the server brackets execution between
// Begin and Commit. Completed responses are cached (cloned — both the
// stored copy and every replayed copy are private, because transports
// recycle response buffers) and replayed byte-identically on duplicates.
//
// Per client at most Cap completed entries are kept; older entries are
// evicted lowest-seq-first, raising that client's floor. The safety
// invariant is Cap ≥ the client's maximum number of outstanding tokens,
// which makes eviction of a token that might still be retried impossible.
type Window struct {
	// Cap is the per-client completed-entry capacity. <=0 means 256.
	Cap int

	mu      sanitize.Mutex
	clients map[string]*clientWindow
	replays uint64
}

type clientWindow struct {
	floor    uint64 // seqs <= floor may have been evicted
	done     doneRing
	inflight map[uint64]struct{}
}

// doneEntry is one completed token and its cached encoded response.
type doneEntry struct {
	seq  uint64
	resp []byte
}

// doneRing holds a client's completed entries in ascending seq order in a
// circular buffer. Clients issue seqs in increasing order and complete
// them nearly so: the common commit lands at the tail and the eviction
// victim — the lowest seq — is always at the head, so both are O(1) and
// allocation-free once the buffer has grown to the window's capacity. A
// commit that completes out of order shifts only the entries above it.
type doneRing struct {
	buf  []doneEntry // len is zero or a power of two
	head int
	n    int
}

func (r *doneRing) at(i int) *doneEntry { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// find returns the position of seq, or the position it would be inserted
// at to keep the ring sorted.
func (r *doneRing) find(seq uint64) (int, bool) {
	if r.n == 0 || seq > r.at(r.n-1).seq {
		return r.n, false
	}
	i := sort.Search(r.n, func(i int) bool { return r.at(i).seq >= seq })
	return i, r.at(i).seq == seq
}

// put stores resp (the ring takes ownership) as seq's response, replacing
// the previous one if seq is already present.
func (r *doneRing) put(seq uint64, resp []byte) {
	i, ok := r.find(seq)
	if ok {
		r.at(i).resp = resp
		return
	}
	if r.n == len(r.buf) {
		grown := make([]doneEntry, max(8, 2*len(r.buf)))
		for j := 0; j < r.n; j++ {
			grown[j] = *r.at(j)
		}
		r.buf, r.head = grown, 0
	}
	for j := r.n; j > i; j-- {
		*r.at(j) = *r.at(j - 1)
	}
	r.n++
	*r.at(i) = doneEntry{seq: seq, resp: resp}
}

// popFront removes and returns the lowest seq.
func (r *doneRing) popFront() uint64 {
	e := r.at(0)
	seq := e.seq
	*e = doneEntry{} // drop the response for the collector
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return seq
}

// NewWindow returns a dedup window keeping up to cap completed entries per
// client.
func NewWindow(cap int) *Window {
	w := &Window{Cap: cap, clients: make(map[string]*clientWindow)}
	w.mu.SetName("resil.Window.mu")
	return w
}

func (w *Window) cap() int {
	if w.Cap <= 0 {
		return 256
	}
	return w.Cap
}

func (w *Window) client(id string) *clientWindow {
	c := w.clients[id]
	if c == nil {
		c = &clientWindow{inflight: make(map[uint64]struct{})}
		w.clients[id] = c
	}
	return c
}

// Begin classifies an incoming token. Seq 0 is the reserved "no token"
// value and always classifies as StateNew without entering the window
// (the request is processed unprotected).
func (w *Window) Begin(client string, seq uint64) (cached []byte, state BeginState) {
	if seq == 0 || client == "" {
		return nil, StateNew
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.client(client)
	if i, ok := c.done.find(seq); ok {
		w.replays++
		return append([]byte(nil), c.done.at(i).resp...), StateReplay
	}
	if seq <= c.floor {
		return nil, StateStale
	}
	if _, ok := c.inflight[seq]; ok {
		return nil, StateInFlight
	}
	c.inflight[seq] = struct{}{}
	return nil, StateNew
}

// Commit records the completed response for a token Begin classified as
// StateNew. resp is cloned; the caller keeps ownership of its buffer.
func (w *Window) Commit(client string, seq uint64, resp []byte) {
	if seq == 0 || client == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	c := w.client(client)
	delete(c.inflight, seq)
	c.done.put(seq, append([]byte(nil), resp...))
	for c.done.n > w.cap() {
		if s := c.done.popFront(); s > c.floor {
			c.floor = s
		}
	}
}

// Abort releases a token Begin classified as StateNew without caching a
// response — used when the request was not executed (shed, decode error)
// so a retry must be allowed to run it.
func (w *Window) Abort(client string, seq uint64) {
	if seq == 0 || client == "" {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if c := w.clients[client]; c != nil {
		delete(c.inflight, seq)
	}
}

// Replays returns how many duplicate requests were answered from cache.
func (w *Window) Replays() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replays
}
