package transport

import (
	"tell/internal/det"
	"tell/internal/env"
	"tell/internal/sanitize"
)

// ConnSet is one owner's connections, one per remote address: the only
// way engine code reaches a peer. It dials on first use, outside its lock
// so a slow dial (TCP under faults) never stalls lookups of other
// addresses; when two first uses race, the first connection stored wins
// and the loser is closed. A lookup that hits allocates nothing.
type ConnSet struct {
	tr   Transport
	from env.Node

	mu     sanitize.Mutex
	conns  map[string]Conn
	closed bool
}

// NewConnSet returns an empty set dialing over tr from node from.
func NewConnSet(tr Transport, from env.Node) *ConnSet {
	s := &ConnSet{tr: tr, from: from, conns: make(map[string]Conn)}
	s.mu.SetName("transport.ConnSet.mu")
	return s
}

// Get returns the connection to addr, dialing it on first use. After Close
// it returns ErrClosed.
func (s *ConnSet) Get(addr string) (Conn, error) {
	s.mu.Lock()
	c, ok := s.conns[addr]
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if ok {
		return c, nil
	}
	c, err := s.tr.Dial(s.from, addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	cur, ok := s.conns[addr]
	closed = s.closed
	if !ok && !closed {
		s.conns[addr] = c
	}
	s.mu.Unlock()
	if !ok && !closed {
		return c, nil
	}
	// Lost a dial race, or Close ran during the dial and will not see c.
	discard(c)
	if closed {
		return nil, ErrClosed
	}
	return cur, nil
}

// Close closes every held connection, in address order so a simulated
// kernel sees the same sequence each run. Later calls to Get fail with
// ErrClosed; operations in flight on a closed connection may fail.
func (s *ConnSet) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	for _, addr := range det.Keys(s.conns) {
		discard(s.conns[addr])
	}
}

// discard closes a connection that is being abandoned.
func discard(c Conn) {
	//lint:allow errdiscard the connection is being abandoned: nothing waits on it, and in-flight failures are expected
	c.Close()
}
