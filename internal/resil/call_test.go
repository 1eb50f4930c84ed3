package resil_test

import (
	"bytes"
	"errors"
	"testing"

	"tell/internal/env"
	"tell/internal/resil"
	"tell/internal/transport"
	"tell/internal/wire"
)

// reply is one scripted RoundTrip outcome.
type reply struct {
	resp []byte
	err  error
}

// scriptConn records every request it is sent and answers attempt i with
// replies[i] (the last reply repeats).
type scriptConn struct {
	replies []reply
	sent    [][]byte
}

func (c *scriptConn) RoundTrip(_ env.Ctx, req []byte) ([]byte, error) {
	c.sent = append(c.sent, append([]byte(nil), req...))
	r := c.replies[min(len(c.sent), len(c.replies))-1]
	return r.resp, r.err
}

func (c *scriptConn) Close() error { return nil }

var errDrop = errors.New("dropped")

// TestCallResendsIdenticalBytes: every attempt carries exactly the caller's
// request; the peer's dedup relies on a resend being a byte-for-byte copy.
func TestCallResendsIdenticalBytes(t *testing.T) {
	runSim(t, 1, func(ctx env.Ctx, e env.Full) {
		conn := &scriptConn{replies: []reply{{err: errDrop}, {err: errDrop}, {resp: []byte("ok")}}}
		req := []byte("request-bytes")
		resp, retried, err := resil.NewRetrier().Call(ctx, resil.ClassWrite, "sn0", conn, req, nil)
		if err != nil || string(resp) != "ok" || !retried {
			t.Errorf("Call = %q, retried=%v, %v; want ok, true, nil", resp, retried, err)
		}
		if len(conn.sent) != 3 {
			t.Errorf("%d attempts, want 3", len(conn.sent))
		}
		for i, got := range conn.sent {
			if !bytes.Equal(got, []byte("request-bytes")) {
				t.Errorf("attempt %d sent %q, want the original request", i, got)
			}
		}
	})
}

// TestCallCheck: a check's plain error is retried like a lost message (a
// shed request), a Permanent one stops after the attempt that produced it.
func TestCallCheck(t *testing.T) {
	runSim(t, 1, func(ctx env.Ctx, e env.Full) {
		r := resil.NewRetrier()
		shed := errors.New("overloaded")
		conn := &scriptConn{replies: []reply{{resp: []byte("shed")}, {resp: []byte("fine")}}}
		check := func(resp []byte) error {
			if string(resp) == "shed" {
				return shed
			}
			return nil
		}
		if _, retried, err := r.Call(ctx, resil.ClassRead, "sn0", conn, []byte("q"), check); err != nil || !retried || len(conn.sent) != 2 {
			t.Errorf("shed then fine: retried=%v err=%v after %d attempts; want a retry and success", retried, err, len(conn.sent))
		}

		bad := errors.New("undecodable")
		conn = &scriptConn{replies: []reply{{resp: []byte("garbage")}}}
		_, _, err := r.Call(ctx, resil.ClassRead, "sn0", conn, []byte("q"), func([]byte) error { return resil.Permanent(bad) })
		if err != bad {
			t.Errorf("permanent check error: got %v, want the unwrapped %v", err, bad)
		}
		if len(conn.sent) != 1 {
			t.Errorf("permanent check error: %d attempts, want 1", len(conn.sent))
		}
	})
}

// TestCallReportsRetried: retried is set only when the accepted response
// answered a resend.
func TestCallReportsRetried(t *testing.T) {
	runSim(t, 1, func(ctx env.Ctx, e env.Full) {
		r := resil.NewRetrier()
		first := &scriptConn{replies: []reply{{resp: []byte("ok")}}}
		if _, retried, err := r.Call(ctx, resil.ClassWrite, "sn0", first, []byte("w"), nil); err != nil || retried {
			t.Errorf("first-attempt success: retried=%v err=%v, want false, nil", retried, err)
		}
		second := &scriptConn{replies: []reply{{err: errDrop}, {resp: []byte("ok")}}}
		if _, retried, err := r.Call(ctx, resil.ClassWrite, "sn0", second, []byte("w"), nil); err != nil || !retried {
			t.Errorf("second-attempt success: retried=%v err=%v, want true, nil", retried, err)
		}
	})
}

// TestPingIsOneAttempt: a probe is never retried, under the default and the
// fast policy tables alike, and only a pong counts as alive.
func TestPingIsOneAttempt(t *testing.T) {
	runSim(t, 1, func(ctx env.Ctx, e env.Full) {
		for _, r := range []*resil.Retrier{resil.NewRetrier(), {Policies: resil.FastPolicies(resil.DefaultPolicies()[resil.ClassRead].BaseBackoff)}} {
			conn := &scriptConn{replies: []reply{{err: errDrop}, {resp: []byte{byte(wire.KindPong)}}}}
			if _, _, err := r.Call(ctx, resil.ClassPing, "sn0", conn, []byte{byte(wire.KindPing)}, nil); err != errDrop {
				t.Errorf("ClassPing call: err = %v, want the first attempt's %v", err, errDrop)
			}
			if len(conn.sent) != 1 {
				t.Errorf("ClassPing made %d attempts, want 1", len(conn.sent))
			}
		}
		for _, tc := range []struct {
			reply reply
			alive bool
		}{
			{reply{resp: []byte{byte(wire.KindPong)}}, true},
			{reply{resp: []byte{byte(wire.KindStoreResp)}}, false},
			{reply{err: errDrop}, false},
		} {
			conn := &scriptConn{replies: []reply{tc.reply}}
			conns := transport.NewConnSet(fixedTransport{conn}, e.NewNode("mgr", 1))
			if alive := resil.NewRetrier().Ping(ctx, conns, "sn0"); alive != tc.alive || len(conn.sent) != 1 {
				t.Errorf("Ping on %+v = %v after %d probes, want %v after 1", tc.reply, alive, len(conn.sent), tc.alive)
			}
		}
	})
}

// fixedTransport dials the same connection for every address.
type fixedTransport struct{ conn transport.Conn }

func (f fixedTransport) Listen(string, env.Node, transport.Handler) error { return nil }
func (f fixedTransport) Dial(env.Node, string) (transport.Conn, error)    { return f.conn, nil }
