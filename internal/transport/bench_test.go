package transport_test

import (
	"testing"

	"tell/internal/env"
	"tell/internal/sim"
	"tell/internal/transport"
)

// echoRig is a client activity driving body against an echo server over a
// fault-free InfiniBand SimNet.
func echoRig(tb testing.TB, body func(ctx env.Ctx, conn transport.Conn)) {
	k := sim.NewKernel(1)
	e := env.NewSim(k)
	net := transport.NewSimNet(k, transport.InfiniBand())
	server, client := e.NewNode("sn", 2), e.NewNode("pn", 2)
	if err := net.Listen("sn", server, func(_ env.Ctx, req []byte) []byte { return req }); err != nil {
		tb.Fatal(err)
	}
	client.Go("c", func(ctx env.Ctx) {
		conn, err := net.Dial(client, "sn")
		if err != nil {
			tb.Error(err)
			return
		}
		body(ctx, conn)
	})
	if err := k.Run(); err != nil {
		tb.Fatal(err)
	}
	k.Shutdown()
}

// BenchmarkSimNetRoundTrip is the host cost of one simulated request: two
// message legs, a handler activity on the serving node and the client's
// guarded wait.
func BenchmarkSimNetRoundTrip(b *testing.B) {
	b.ReportAllocs()
	req := make([]byte, 64)
	echoRig(b, func(ctx env.Ctx, conn transport.Conn) {
		conn.RoundTrip(ctx, req) // first call grows the kernel's free lists
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := conn.RoundTrip(ctx, req); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
	})
}

// simNetRoundTripAllocs is what one fault-free RoundTrip with an echo handler
// allocates once the kernel's free lists are warm: the call, the handler's
// method value and the response. With a closure per leg, an event per
// schedule and a goroutine per handler it was 19.
const simNetRoundTripAllocs = 3

func TestSimNetRoundTripAllocs(t *testing.T) {
	req := make([]byte, 64)
	echoRig(t, func(ctx env.Ctx, conn transport.Conn) {
		got := testing.AllocsPerRun(200, func() {
			if _, err := conn.RoundTrip(ctx, req); err != nil {
				t.Error(err)
			}
		})
		if got > simNetRoundTripAllocs {
			t.Errorf("RoundTrip allocates %v objects, want at most %d", got, simNetRoundTripAllocs)
		}
	})
}
