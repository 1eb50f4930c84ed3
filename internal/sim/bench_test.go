package sim

import (
	"testing"
	"time"
)

// runBench runs body as the only driver process of a fresh kernel and times
// it alone: set-up (spawning partners, filling the heap) happens in prepare.
func runBench(b *testing.B, prepare func(k *Kernel), body func(p *Proc)) {
	b.ReportAllocs()
	k := NewKernel(1)
	if prepare != nil {
		prepare(k)
	}
	k.Go("bench", func(p *Proc) {
		p.Sleep(0) // let the partners reach their first wait
		b.ResetTimer()
		body(p)
		b.StopTimer()
		k.Stop()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	k.Shutdown()
}

// BenchmarkSleepWake is one event push, one pop and one process hand-off in
// each direction: the unit every other simulated operation is made of.
func BenchmarkSleepWake(b *testing.B) {
	runBench(b, nil, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
}

// BenchmarkSpawnFinish spawns a process that returns at once and yields so it
// runs: the cost of a handler or transaction activity's shell.
func BenchmarkSpawnFinish(b *testing.B) {
	child := func(*Proc) {}
	runBench(b, nil, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Go("child", child)
			p.Sleep(0)
		}
	})
}

// setter answers every future it is sent, at the instant it arrives.
func setter(k *Kernel) *Queue {
	q := NewQueue(k)
	k.Go("setter", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			v.(*Future).Set(nil)
		}
	})
	return q
}

// BenchmarkFutureRoundTrip is a request/reply between two processes: a new
// future, a queue put and get, a set and a blocking get.
func BenchmarkFutureRoundTrip(b *testing.B) {
	var q *Queue
	runBench(b, func(k *Kernel) { q = setter(k) }, func(p *Proc) {
		for i := 0; i < b.N; i++ {
			f := NewFuture(p.Kernel())
			q.Put(f)
			f.Get(p)
		}
	})
}

// BenchmarkTimerSatisfied is the same round trip guarded by a 50ms timeout
// that never fires — every SimNet request — alone and beside 30,000 resident
// events, the size of heap the uncancelled timeouts of a tpcc-std run used
// to keep.
func BenchmarkTimerSatisfied(b *testing.B) {
	for _, bc := range []struct {
		name     string
		resident int
	}{{"resident=0", 0}, {"resident=30000", 30000}} {
		b.Run(bc.name, func(b *testing.B) {
			var q *Queue
			runBench(b, func(k *Kernel) {
				q = setter(k)
				for i := 0; i < bc.resident; i++ {
					k.After(time.Hour+time.Duration(i), func() {})
				}
			}, func(p *Proc) {
				for i := 0; i < b.N; i++ {
					f := NewFuture(p.Kernel())
					q.Put(f)
					if _, ok := f.GetTimeout(p, 50*time.Millisecond); !ok {
						b.Error("timed out")
						return
					}
				}
			})
		})
	}
}
