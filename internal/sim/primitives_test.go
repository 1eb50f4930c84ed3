package sim

import (
	"testing"
	"time"
)

func TestQueueFIFO(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			v, ok := q.Get(p)
			if !ok {
				t.Error("queue closed unexpectedly")
				return
			}
			got = append(got, v.(int))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 1; i <= 3; i++ {
			q.Put(i)
			p.Sleep(time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v, want [1 2 3]", got)
	}
}

func TestQueueBuffersWhenNoWaiter(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	q.Put("a")
	q.Put("b")
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	var got []string
	k.Go("c", func(p *Proc) {
		for i := 0; i < 2; i++ {
			v, _ := q.Get(p)
			got = append(got, v.(string))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != "a" || got[1] != "b" {
		t.Fatalf("got %v", got)
	}
}

func TestQueueCloseWakesWaiters(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	closedSeen := 0
	for i := 0; i < 2; i++ {
		k.Go("w", func(p *Proc) {
			if _, ok := q.Get(p); !ok {
				closedSeen++
			}
		})
	}
	k.After(time.Millisecond, func() { q.Close() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if closedSeen != 2 {
		t.Fatalf("closedSeen = %d, want 2", closedSeen)
	}
}

func TestQueueGetTimeout(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	var timedOut, gotValue bool
	k.Go("w", func(p *Proc) {
		_, _, to := q.GetTimeout(p, time.Millisecond)
		timedOut = to
		v, ok, to2 := q.GetTimeout(p, 10*time.Millisecond)
		gotValue = ok && !to2 && v.(int) == 7
	})
	k.After(2*time.Millisecond, func() { q.Put(7) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Fatal("first Get should have timed out")
	}
	if !gotValue {
		t.Fatal("second Get should have received 7")
	}
}

func TestQueueTimedOutWaiterDoesNotConsumeValue(t *testing.T) {
	k := testKernel(t, 1)
	q := NewQueue(k)
	var late, value bool
	k.Go("w1", func(p *Proc) {
		_, _, to := q.GetTimeout(p, time.Millisecond)
		late = to
	})
	k.Go("w2", func(p *Proc) {
		v, ok := q.Get(p)
		value = ok && v.(int) == 9
	})
	k.After(5*time.Millisecond, func() { q.Put(9) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !late || !value {
		t.Fatalf("late=%v value=%v, want both true", late, value)
	}
}

func TestFutureDeliversToAllWaiters(t *testing.T) {
	k := testKernel(t, 1)
	f := NewFuture(k)
	sum := 0
	for i := 0; i < 3; i++ {
		k.Go("w", func(p *Proc) { sum += f.Get(p).(int) })
	}
	k.After(time.Millisecond, func() { f.Set(5) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sum != 15 {
		t.Fatalf("sum = %d, want 15", sum)
	}
}

func TestFutureGetAfterSetReturnsImmediately(t *testing.T) {
	k := testKernel(t, 1)
	f := NewFuture(k)
	f.Set("x")
	var got string
	var at Time
	k.Go("w", func(p *Proc) {
		got = f.Get(p).(string)
		at = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" || at != 0 {
		t.Fatalf("got %q at %v", got, at)
	}
}

func TestFutureGetTimeout(t *testing.T) {
	k := testKernel(t, 1)
	f := NewFuture(k)
	var ok bool
	k.Go("w", func(p *Proc) { _, ok = f.GetTimeout(p, time.Millisecond) })
	k.After(time.Hour, func() { f.Set(1) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("expected timeout")
	}
}

func TestResourceSerializesWork(t *testing.T) {
	// Three jobs of 10ms on a 1-unit resource finish at 10, 20, 30ms.
	k := testKernel(t, 1)
	r := NewResource(k, 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		k.Go("job", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{Time(10 * time.Millisecond), Time(20 * time.Millisecond), Time(30 * time.Millisecond)}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
}

func TestResourceParallelism(t *testing.T) {
	// Four jobs of 10ms on a 2-unit resource finish at 10, 10, 20, 20ms.
	k := testKernel(t, 1)
	r := NewResource(k, 2)
	var ends []Time
	for i := 0; i < 4; i++ {
		k.Go("job", func(p *Proc) {
			r.Use(p, 10*time.Millisecond)
			ends = append(ends, p.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != Time(20*time.Millisecond) {
		t.Fatalf("finished at %v, want 20ms", k.Now())
	}
}

// TestResourceUtilization: the OnUse intervals, which the trace's core
// tracks and utilization series are built from, account for the busy time.
func TestResourceUtilization(t *testing.T) {
	k := testKernel(t, 1)
	r := NewResource(k, 2)
	var busy time.Duration
	r.OnUse = func(_ int, start, end Time) { busy += end.Sub(start) }
	k.Go("job", func(p *Proc) { r.Use(p, 10*time.Millisecond) })
	if err := k.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// One of two units busy for half the elapsed time: 25%.
	if u := float64(busy) / float64(2*k.Now().Duration()); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}
