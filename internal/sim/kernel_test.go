package sim

import (
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := testKernel(t, 1)
	var woke Time
	k.Go("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		woke = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != Time(5*time.Millisecond) {
		t.Fatalf("woke at %v, want 5ms", woke)
	}
	if k.Now() != woke {
		t.Fatalf("kernel time %v, want %v", k.Now(), woke)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	k := testKernel(t, 1)
	var order []int
	k.Go("a", func(p *Proc) {
		p.Sleep(3 * time.Millisecond)
		order = append(order, 3)
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(1 * time.Millisecond)
		order = append(order, 1)
	})
	k.Go("c", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		order = append(order, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

func TestEqualTimeEventsFireInScheduleOrder(t *testing.T) {
	k := testKernel(t, 1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.After(time.Millisecond, func() { order = append(order, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	k := testKernel(t, 1)
	fired := 0
	k.After(time.Second, func() { fired++ })
	k.After(3*time.Second, func() { fired++ })
	if err := k.RunUntil(Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if k.Now() != Time(2*time.Second) {
		t.Fatalf("now = %v, want 2s", k.Now())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
}

func TestRunForIsRelative(t *testing.T) {
	k := testKernel(t, 1)
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if err := k.RunFor(time.Second); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(2*time.Second) {
		t.Fatalf("now = %v, want 2s", k.Now())
	}
}

func TestProcessPanicSurfacesAsError(t *testing.T) {
	k := testKernel(t, 1)
	k.Go("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestStopHaltsRun(t *testing.T) {
	k := testKernel(t, 1)
	n := 0
	k.Go("stopper", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(time.Millisecond)
			n++
			if n == 5 {
				p.Kernel().Stop()
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("n = %d, want 5", n)
	}
	k.Shutdown()
	if k.Procs() != 0 {
		t.Fatalf("procs = %d after shutdown, want 0", k.Procs())
	}
}

func TestShutdownReleasesBlockedProcesses(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	for i := 0; i < 3; i++ {
		k.Go("blocked", func(p *Proc) { q.Get(p) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Procs() != 3 {
		t.Fatalf("procs = %d, want 3 blocked", k.Procs())
	}
	k.Shutdown()
	if k.Procs() != 0 {
		t.Fatalf("procs = %d after shutdown, want 0", k.Procs())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	trace := func() []int64 {
		k := NewKernel(42)
		var out []int64
		for i := 0; i < 5; i++ {
			k.Go("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					d := time.Duration(k.Rand().Intn(1000)) * time.Microsecond
					p.Sleep(d)
					out = append(out, int64(p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		k.Shutdown()
		return out
	}
	a, b := trace(), trace()
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestNestedSpawn(t *testing.T) {
	k := testKernel(t, 1)
	done := 0
	k.Go("parent", func(p *Proc) {
		p.Go("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			done++
		})
		p.Sleep(2 * time.Millisecond)
		done++
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
}

// testKernel returns a kernel that is shut down when the test ends, so that
// its parked process goroutines exit (see main_test.go).
func testKernel(t testing.TB, seed int64) *Kernel {
	k := NewKernel(seed)
	t.Cleanup(k.Shutdown)
	return k
}
