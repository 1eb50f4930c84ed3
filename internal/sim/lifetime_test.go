package sim

import (
	"runtime"
	"testing"
	"time"
)

// Tests of the kernel's lifetime rules: a satisfied wait takes its timer
// with it, a stale timer handle cancels nothing, a timed-out process is on no
// waiter list, finished processes are reused, and none of it allocates.

func TestSatisfiedTimeoutsLeaveNoEvents(t *testing.T) {
	k := testKernel(t, 1)
	q := setter(k)
	peak := 0
	k.Go("client", func(p *Proc) {
		for i := 0; i < 10000; i++ {
			f := NewFuture(k)
			q.Put(f)
			if _, ok := f.GetTimeout(p, 50*time.Millisecond); !ok {
				t.Error("timed out")
				return
			}
			p.Sleep(time.Microsecond)
			peak = max(peak, k.Pending())
		}
		q.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Resident at any one time: the client's timer or sleep and the setter's
	// wake-up. The kernel that never cancelled a timer kept all 10,000.
	if peak > 3 {
		t.Fatalf("up to %d events pending across satisfied timeouts, want at most 3", peak)
	}
	if k.Now() != Time(10000*time.Microsecond) {
		t.Fatalf("drained at %v: a cancelled timer still moved the clock", k.Now())
	}
}

func TestStaleTimerHandleCancelsNothing(t *testing.T) {
	// Value and deadline fall on the same instant, the value first: the
	// timer fires (as a no-op) between the delivery and the waiter's
	// wake-up, and its slot is taken by what the sleeper schedules next.
	// The waiter's late cancel must leave all of that alone.
	k := testKernel(t, 1)
	f := NewFuture(k)
	k.After(time.Millisecond, func() { f.Set("v") })
	var got any
	fired := 0
	var woke Time
	k.Go("waiter", func(p *Proc) { got, _ = f.GetTimeout(p, time.Millisecond) })
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(time.Millisecond) // wakes after the timer fired, before the waiter
		for i := 1; i <= 4; i++ {
			k.After(time.Duration(i)*time.Millisecond, func() { fired++ })
		}
		p.Sleep(10 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "v" {
		t.Fatalf("waiter got %v, want the value", got)
	}
	if fired != 4 || woke != Time(11*time.Millisecond) {
		t.Fatalf("%d of 4 callbacks fired and the sleeper woke at %v (want 11ms): a stale handle cancelled a live event", fired, woke)
	}
}

func TestTimedOutWaiterIsUnlinked(t *testing.T) {
	// A process that gave up on queue a and moved on to future b must not be
	// woken by a later Put to a, and the value must stay in a.
	k := testKernel(t, 1)
	a, b := NewQueue(k), NewFuture(k)
	var timedOut bool
	var fromB, fromA any
	var at Time
	k.Go("w", func(p *Proc) {
		_, _, timedOut = a.GetTimeout(p, time.Millisecond)
		fromB, at = b.Get(p), p.Now()
		fromA, _ = a.Get(p)
	})
	buffered := -1
	k.After(5*time.Millisecond, func() { a.Put(9); buffered = a.Len() })
	k.After(10*time.Millisecond, func() { b.Set("b") })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || fromB != "b" || at != Time(10*time.Millisecond) {
		t.Fatalf("timedOut=%v, then got %v from b at %v; want true, b at 10ms", timedOut, fromB, at)
	}
	if buffered != 1 || fromA != 9 {
		t.Fatalf("a buffered %d values and then yielded %v, want 1 and 9", buffered, fromA)
	}
}

func TestFutureUnlinkKeepsArrivalOrder(t *testing.T) {
	k := testKernel(t, 1)
	f := NewFuture(k)
	var order []string
	for _, w := range []struct {
		name string
		d    time.Duration
	}{{"first", time.Millisecond}, {"second", time.Hour}, {"third", 2 * time.Millisecond}, {"fourth", time.Hour}} {
		w := w
		k.Go(w.name, func(p *Proc) {
			if _, ok := f.GetTimeout(p, w.d); ok {
				order = append(order, w.name)
			}
		})
	}
	k.After(3*time.Millisecond, func() { f.Set(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "second" || order[1] != "fourth" {
		t.Fatalf("woken: %v, want [second fourth]", order)
	}
}

func TestFinishedProcessIsReused(t *testing.T) {
	k := testKernel(t, 1)
	nop := func(*Proc) {}
	first := k.Go("a", nop)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Parked() != 1 {
		t.Fatalf("%d parked processes after one finished, want 1", k.Parked())
	}
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		if p := k.Go("again", nop); p != first {
			t.Fatal("a spawn did not take the parked process")
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Only growth counts: a goroutine an earlier test left behind may end
	// during the loop, and reuse is what keeps the count from rising by
	// one per spawn.
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Fatalf("goroutines went from %d to %d over 100 sequential spawns", goroutines, n)
	}
}

func TestGoexitAndPanicAreNotReused(t *testing.T) {
	k := testKernel(t, 1)
	k.Go("warm", func(*Proc) {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Takes the parked process and leaves through Goexit, as a t.Fatal
	// inside a simulated activity does.
	k.Go("goexit", func(p *Proc) {
		p.Sleep(time.Millisecond)
		runtime.Goexit()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Procs() != 0 || k.Parked() != 0 {
		t.Fatalf("after Goexit: %d live, %d parked; want 0, 0", k.Procs(), k.Parked())
	}
	k.Go("boom", func(*Proc) { panic("kaboom") })
	if err := k.Run(); err == nil {
		t.Fatal("the panic did not surface")
	}
	if k.Procs() != 0 || k.Parked() != 0 {
		t.Fatalf("after panic: %d live, %d parked; want 0, 0", k.Procs(), k.Parked())
	}
}

func TestShutdownEndsBlockedAndParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel(1)
	q := NewQueue(k)
	for i := 0; i < 5; i++ {
		k.Go("finishes", func(p *Proc) { p.Sleep(time.Millisecond) })
		k.Go("blocks", func(p *Proc) { q.Get(p) })
	}
	k.Go("stopper", func(p *Proc) {
		p.Sleep(time.Second)
		p.Go("never starts", func(*Proc) { t.Error("ran after Stop") })
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Procs() != 6 || k.Parked() != 5 {
		t.Fatalf("%d live, %d parked; want 6, 5", k.Procs(), k.Parked())
	}
	k.Shutdown()
	if k.Procs() != 0 || k.Parked() != 0 || len(k.free) != 0 {
		t.Fatalf("after Shutdown: %d live, %d parked, %d free events", k.Procs(), k.Parked(), len(k.free))
	}
	// The goroutines end after their last message to the kernel.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the kernel existed", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// steadyAllocs runs op inside a process, after prepare has set up its
// partners and one warm-up call has grown rings and free lists, and returns
// the allocations per call across all goroutines.
func steadyAllocs(t *testing.T, prepare func(k *Kernel), op func(p *Proc)) float64 {
	t.Helper()
	k := testKernel(t, 1)
	if prepare != nil {
		prepare(k)
	}
	var allocs float64
	k.Go("measured", func(p *Proc) {
		p.Sleep(0) // let the partners reach their first wait
		allocs = testing.AllocsPerRun(100, func() { op(p) })
		k.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

func TestSteadyStateAllocs(t *testing.T) {
	var (
		r        *Resource
		q, reply *Queue
		futures  *Queue
		child    = func(*Proc) {}
		token    = new(int)
	)
	for _, c := range []struct {
		name    string
		want    float64
		prepare func(k *Kernel)
		op      func(p *Proc)
	}{
		{"Sleep", 0, nil, func(p *Proc) { p.Sleep(time.Microsecond) }},
		{"Resource.Use uncontended", 0,
			func(k *Kernel) { r = NewResource(k, 1) },
			func(p *Proc) { r.Use(p, time.Microsecond) }},
		{"Resource.Use contended", 0,
			func(k *Kernel) {
				r = NewResource(k, 1)
				k.Go("rival", func(p *Proc) {
					for {
						r.Use(p, time.Microsecond)
					}
				})
			},
			func(p *Proc) { r.Use(p, time.Microsecond) }},
		{"Queue.Put+Get buffered", 0,
			func(k *Kernel) { q = NewQueue(k) },
			func(p *Proc) { q.Put(token); q.Get(p) }},
		{"Queue.Put+Get blocking, satisfied GetTimeout", 0,
			func(k *Kernel) {
				q, reply = NewQueue(k), NewQueue(k)
				k.Go("echo", func(p *Proc) {
					for {
						v, _ := q.Get(p)
						p.Sleep(time.Microsecond)
						reply.Put(v)
					}
				})
			},
			func(p *Proc) {
				q.Put(token)
				if _, _, timedOut := reply.GetTimeout(p, 50*time.Millisecond); timedOut {
					t.Error("timed out")
				}
			}},
		{"NewFuture+Set+Get", 1, // the future
			func(k *Kernel) { futures = setter(k) },
			func(p *Proc) { f := NewFuture(p.Kernel()); futures.Put(f); f.Get(p) }},
		{"NewFuture+Set+satisfied GetTimeout", 1,
			func(k *Kernel) { futures = setter(k) },
			func(p *Proc) { f := NewFuture(p.Kernel()); futures.Put(f); f.GetTimeout(p, 50*time.Millisecond) }},
		{"spawn of a pooled process", 0, nil,
			func(p *Proc) { p.Go("child", child); p.Sleep(0) }},
	} {
		if got := steadyAllocs(t, c.prepare, c.op); got != c.want {
			t.Errorf("%s: %v allocations per call, want %v", c.name, got, c.want)
		}
	}
}
