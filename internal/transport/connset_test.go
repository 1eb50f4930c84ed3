package transport_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/transport"
)

// countingConn is a connection that only records whether it was closed.
type countingConn struct {
	id     int
	closed atomic.Bool
}

func (c *countingConn) RoundTrip(env.Ctx, []byte) ([]byte, error) { return nil, nil }
func (c *countingConn) Close() error                              { c.closed.Store(true); return nil }

// gateTransport hands out a fresh countingConn per Dial. With gate set,
// every Dial blocks until gate dials are in progress, so that many first
// uses of an address race past the cache together.
type gateTransport struct {
	gate int

	mu      sync.Mutex
	dialing int
	release chan struct{}
	dialed  []*countingConn
}

func (g *gateTransport) Listen(string, env.Node, transport.Handler) error { return nil }

func (g *gateTransport) Dial(env.Node, string) (transport.Conn, error) {
	g.mu.Lock()
	c := &countingConn{id: len(g.dialed)}
	g.dialed = append(g.dialed, c)
	if g.release == nil {
		g.release = make(chan struct{})
	}
	g.dialing++
	if g.dialing == g.gate {
		close(g.release)
	}
	release := g.release
	g.mu.Unlock()
	if g.gate > 0 {
		select {
		case <-release:
		case <-time.After(10 * time.Second):
		}
	}
	return c, nil
}

// TestConnSetDialRace: concurrent first uses of one address all dial, all
// get the connection stored first, and every losing connection is closed.
func TestConnSetDialRace(t *testing.T) {
	const racers = 16
	tr := &gateTransport{gate: racers}
	set := transport.NewConnSet(tr, nil)
	got := make([]transport.Conn, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := set.Get("sn0")
			if err != nil {
				t.Errorf("Get: %v", err)
			}
			got[i] = c
		}(i)
	}
	wg.Wait()
	if len(tr.dialed) != racers {
		t.Fatalf("%d dials, want %d racing first uses", len(tr.dialed), racers)
	}
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("racer %d got conn %d, racer 0 got %d", i, got[i].(*countingConn).id, got[0].(*countingConn).id)
		}
	}
	if got[0].(*countingConn).closed.Load() {
		t.Fatal("the connection handed out was closed")
	}
	losersClosed := 0
	for _, c := range tr.dialed {
		if c != got[0] && c.closed.Load() {
			losersClosed++
		}
	}
	if losersClosed != racers-1 {
		t.Fatalf("%d of %d race losers closed", losersClosed, racers-1)
	}
	if c, _ := set.Get("sn0"); c != got[0] {
		t.Fatal("a later use dialed again instead of reusing the winner")
	}
}

// TestConnSetClose: Close closes every held connection, and afterwards
// every use, of a held address or a new one, fails with ErrClosed.
func TestConnSetClose(t *testing.T) {
	tr := &gateTransport{}
	set := transport.NewConnSet(tr, nil)
	addrs := []string{"sn0", "sn1", "sn2"}
	for _, a := range addrs {
		if _, err := set.Get(a); err != nil {
			t.Fatal(err)
		}
	}
	set.Close()
	for i, c := range tr.dialed {
		if !c.closed.Load() {
			t.Fatalf("connection to %s left open by Close", addrs[i])
		}
	}
	for _, a := range append(addrs, "sn3") {
		if c, err := set.Get(a); !errors.Is(err, transport.ErrClosed) || c != nil {
			t.Fatalf("Get(%s) after Close = %v, %v; want ErrClosed", a, c, err)
		}
	}
	if len(tr.dialed) != len(addrs) {
		t.Fatalf("a closed set dialed: %d dials, want %d", len(tr.dialed), len(addrs))
	}
}

// TestConnSetHitAllocs: looking up a held connection allocates nothing; it
// sits on the store client's per-batch path.
func TestConnSetHitAllocs(t *testing.T) {
	set := transport.NewConnSet(&gateTransport{}, nil)
	if _, err := set.Get("sn0"); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := set.Get("sn0"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a hit allocates %.0f times, want 0", n)
	}
}
