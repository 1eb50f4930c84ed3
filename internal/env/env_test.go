package env_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tell/internal/env"
	"tell/internal/sim"
)

// runSim spawns fn on a fresh simulated node and runs the kernel to
// completion.
func runSim(t *testing.T, fn func(ctx env.Ctx, e env.Full)) {
	t.Helper()
	k := sim.NewKernel(1)
	e := env.NewSim(k)
	n := e.NewNode("n1", 4)
	n.Go("test", func(ctx env.Ctx) { fn(ctx, e) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Shutdown()
}

func TestSimSleepIsVirtual(t *testing.T) {
	start := time.Now()
	runSim(t, func(ctx env.Ctx, e env.Full) {
		ctx.Sleep(10 * time.Hour)
		if ctx.Now() != 10*time.Hour {
			t.Errorf("Now = %v, want 10h", ctx.Now())
		}
	})
	if real := time.Since(start); real > time.Second {
		t.Fatalf("simulated 10h took %v of real time", real)
	}
}

func TestSimWorkOccupiesCores(t *testing.T) {
	// 8 activities charging 10ms each on a 4-core node take 20ms.
	k := sim.NewKernel(1)
	e := env.NewSim(k)
	n := e.NewNode("n1", 4)
	for i := 0; i < 8; i++ {
		n.Go("w", func(ctx env.Ctx) { ctx.Work(10 * time.Millisecond) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := e.Now(); got != 20*time.Millisecond {
		t.Fatalf("elapsed = %v, want 20ms", got)
	}
	k.Shutdown()
}

func TestSimQueueAcrossNodes(t *testing.T) {
	k := sim.NewKernel(1)
	e := env.NewSim(k)
	q := e.NewQueue()
	a := e.NewNode("a", 1)
	b := e.NewNode("b", 1)
	got := 0
	b.Go("consumer", func(ctx env.Ctx) {
		v, ok := q.Get(ctx)
		if ok {
			got = v.(int)
		}
	})
	a.Go("producer", func(ctx env.Ctx) {
		ctx.Sleep(time.Millisecond)
		q.Put(42)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
	k.Shutdown()
}

func TestRealEnvBasics(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 2)
	if n.Name() != "n1" {
		t.Fatalf("node name wrong: %q", n.Name())
	}
	var wg sync.WaitGroup
	var count atomic.Int32
	wg.Add(3)
	for i := 0; i < 3; i++ {
		n.Go("w", func(ctx env.Ctx) {
			defer wg.Done()
			ctx.Work(time.Hour) // free under the real env
			ctx.Sleep(time.Millisecond)
			count.Add(1)
		})
	}
	wg.Wait()
	if count.Load() != 3 {
		t.Fatalf("count = %d, want 3", count.Load())
	}
}

func TestRealQueue(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 1)
	q := e.NewQueue()
	done := make(chan int, 3)
	n.Go("c", func(ctx env.Ctx) {
		for {
			v, ok := q.Get(ctx)
			if !ok {
				close(done)
				return
			}
			done <- v.(int)
		}
	})
	q.Put(1)
	q.Put(2)
	if got := <-done; got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
	if got := <-done; got != 2 {
		t.Fatalf("got %d, want 2", got)
	}
	q.Close()
	if _, ok := <-done; ok {
		t.Fatal("expected closed channel after queue close")
	}
}

func TestRealQueueTimeout(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 1)
	q := e.NewQueue()
	res := make(chan bool, 1)
	n.Go("c", func(ctx env.Ctx) {
		_, _, timedOut := q.GetTimeout(ctx, 10*time.Millisecond)
		res <- timedOut
	})
	if !<-res {
		t.Fatal("expected timeout")
	}
}

// TestRealQueueTimedHandOff passes a token back and forth between two
// activities through GetTimeout. Each hand-off wakes a waiter that is
// already asleep, so a wait that polls on a tick costs at least one tick
// per hand-off; a real timed wait wakes on Put.
func TestRealQueueTimedHandOff(t *testing.T) {
	const handOffs = 1000
	e := env.NewReal(7)
	n := e.NewNode("n1", 2)
	ping, pong := e.NewQueue(), e.NewQueue()
	errs := make(chan string, 2)
	relay := func(in, out env.Queue, first bool) func(env.Ctx) {
		return func(ctx env.Ctx) {
			if first {
				out.Put(0)
			}
			for {
				v, ok, timedOut := in.GetTimeout(ctx, time.Second)
				if timedOut || !ok {
					errs <- "hand-off timed out"
					return
				}
				if i := v.(int); i < handOffs {
					out.Put(i + 1)
					continue
				}
				out.Put(handOffs)
				errs <- ""
				return
			}
		}
	}
	start := time.Now()
	n.Go("ping", relay(ping, pong, true))
	n.Go("pong", relay(pong, ping, false))
	for i := 0; i < 2; i++ {
		if msg := <-errs; msg != "" {
			t.Fatal(msg)
		}
	}
	if el := time.Since(start); el >= 300*time.Millisecond {
		t.Fatalf("%d timed hand-offs took %v, want < 300ms", handOffs, el)
	}
}

// TestRealQueueTimeoutWakesOnClose: a timed waiter returns as soon as the
// queue closes, not at its deadline.
func TestRealQueueTimeoutWakesOnClose(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 1)
	q := e.NewQueue()
	type out struct{ ok, timedOut bool }
	res := make(chan out, 1)
	n.Go("c", func(ctx env.Ctx) {
		_, ok, timedOut := q.GetTimeout(ctx, time.Minute)
		res <- out{ok, timedOut}
	})
	time.Sleep(5 * time.Millisecond)
	q.Close()
	select {
	case r := <-res:
		if r.ok || r.timedOut {
			t.Fatalf("ok=%v timedOut=%v after Close, want false/false", r.ok, r.timedOut)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("timed waiter did not wake on Close")
	}
}

// TestTryGet: TryGet takes queued values in order without blocking, in
// both environments, and keeps returning what was queued before Close.
func TestTryGet(t *testing.T) {
	check := func(q env.Queue) string {
		if _, ok := q.TryGet(); ok {
			return "TryGet on an empty queue reported a value"
		}
		q.Put(1)
		q.Put(2)
		q.Close()
		for want := 1; want <= 2; want++ {
			if v, ok := q.TryGet(); !ok || v.(int) != want {
				return fmt.Sprintf("TryGet = %v, %v; want %d", v, ok, want)
			}
		}
		if _, ok := q.TryGet(); ok {
			return "TryGet on a drained queue reported a value"
		}
		return ""
	}
	if msg := check(env.NewReal(7).NewQueue()); msg != "" {
		t.Fatal("real: " + msg)
	}
	var msg string
	runSim(t, func(ctx env.Ctx, e env.Full) {
		t0 := ctx.Now()
		if msg = check(e.NewQueue()); msg == "" && ctx.Now() != t0 {
			msg = "TryGet moved the virtual clock"
		}
	})
	if msg != "" {
		t.Fatal("sim: " + msg)
	}
}

func TestRealFuture(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 1)
	f := e.NewFuture()
	res := make(chan any, 1)
	n.Go("w", func(ctx env.Ctx) { res <- f.Get(ctx) })
	time.Sleep(5 * time.Millisecond)
	f.Set("hello")
	if got := <-res; got != "hello" {
		t.Fatalf("got %v", got)
	}
	if !f.IsSet() {
		t.Fatal("IsSet should be true")
	}
}

func TestRealFutureTimeout(t *testing.T) {
	e := env.NewReal(7)
	n := e.NewNode("n1", 1)
	f := e.NewFuture()
	res := make(chan bool, 1)
	n.Go("w", func(ctx env.Ctx) {
		_, ok := f.GetTimeout(ctx, 5*time.Millisecond)
		res <- ok
	})
	if <-res {
		t.Fatal("expected timeout")
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []int64 {
		k := sim.NewKernel(99)
		e := env.NewSim(k)
		n := e.NewNode("n", 2)
		var trace []int64
		for i := 0; i < 4; i++ {
			n.Go("w", func(ctx env.Ctx) {
				for j := 0; j < 10; j++ {
					ctx.Work(time.Duration(ctx.Rand().Intn(100)) * time.Microsecond)
					trace = append(trace, int64(ctx.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		return trace
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d", i)
		}
	}
}

func TestLockerMutualExclusionSim(t *testing.T) {
	k := sim.NewKernel(1)
	e := env.NewSim(k)
	n := e.NewNode("n", 2)
	l := env.NewLocker(e)
	inside := 0
	maxInside := 0
	for i := 0; i < 5; i++ {
		n.Go("w", func(ctx env.Ctx) {
			l.Lock(ctx)
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			// Hold across a blocking operation — the forbidden pattern
			// for sync.Mutex, the reason Locker exists.
			ctx.Sleep(time.Millisecond)
			inside--
			l.Unlock()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if maxInside != 1 {
		t.Fatalf("critical section overlapped: %d", maxInside)
	}
	if k.Now().Duration() < 5*time.Millisecond {
		t.Fatalf("sections did not serialize: %v", k.Now().Duration())
	}
	k.Shutdown()
}

func TestLockerRealEnv(t *testing.T) {
	e := env.NewReal(1)
	n := e.NewNode("n", 2)
	l := env.NewLocker(e)
	var mu sync.Mutex
	inside, maxInside := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		n.Go("w", func(ctx env.Ctx) {
			defer wg.Done()
			l.Lock(ctx)
			mu.Lock()
			inside++
			if inside > maxInside {
				maxInside = inside
			}
			mu.Unlock()
			ctx.Sleep(time.Millisecond)
			mu.Lock()
			inside--
			mu.Unlock()
			l.Unlock()
		})
	}
	wg.Wait()
	if maxInside != 1 {
		t.Fatalf("critical section overlapped: %d", maxInside)
	}
}
