package sim

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"
)

// oracleHash is the FNV-1a hash of the (virtual time, process, step) sequence
// the scenario below produced on the kernel before events, waiters and
// processes were recycled (commit 3cbc913). The kernel may change how it
// stores what it schedules, never the order it fires it in; when
// exp.TestByteIdenticalSummary drifts, this test says whether the kernel is
// where to look.
const oracleHash = 0x1327d634c9a867b7

// TestFiringOrderOracle runs a scenario that touches every scheduling path —
// nested spawns, equal-time events, timeouts that fire and timeouts that are
// beaten (some at the very instant they expire), queue close, resource
// contention, a RunUntil that leaves an event for the next call — and
// compares the order of steps with the recorded one.
func TestFiringOrderOracle(t *testing.T) {
	k := NewKernel(7)
	h := fnv.New64a()
	steps := 0
	step := func(who, what string) {
		fmt.Fprintf(h, "%d %s %s\n", k.Now(), who, what)
		steps++
	}
	const ms = time.Millisecond

	jobs := NewQueue(k)
	cpu := NewResource(k, 2)
	gate := NewFuture(k)

	// Workers contend for two cores; each job spawns a child that answers
	// through a future the worker waits on with a timeout the child beats,
	// meets exactly, or misses.
	for w := 0; w < 3; w++ {
		name := fmt.Sprintf("worker%d", w)
		k.Go(name, func(p *Proc) {
			for {
				v, ok := jobs.Get(p)
				if !ok {
					step(name, "closed")
					return
				}
				job := v.(int)
				step(name, fmt.Sprintf("job%d", job))
				cpu.Use(p, time.Duration(1+job%3)*ms)
				reply := NewFuture(k)
				p.Go(fmt.Sprintf("%s/child%d", name, job), func(c *Proc) {
					c.Sleep(time.Duration(job%4) * ms) // 0..3ms against a 2ms timeout
					if !reply.IsSet() {
						reply.Set(job * 10)
					}
					step(c.Name(), "replied")
				})
				if v, ok := reply.GetTimeout(p, 2*ms); ok {
					step(name, fmt.Sprintf("reply%d", v.(int)))
				} else {
					step(name, "timeout")
				}
			}
		})
	}

	// A producer with random gaps, interleaved with kernel callbacks that land
	// on the same instants.
	k.Go("producer", func(p *Proc) {
		for j := 0; j < 40; j++ {
			jobs.Put(j)
			step("producer", fmt.Sprintf("put%d", j))
			p.Sleep(time.Duration(k.Rand().Intn(3)) * ms)
		}
		p.Sleep(50 * ms)
		jobs.Close()
		step("producer", "close")
	})
	for i := 0; i < 10; i++ {
		i := i
		k.After(5*ms, func() { step("kernel", fmt.Sprintf("tick%d", i)) })
	}

	// Several waiters on one future, one of which gives up first; the
	// survivors wake in arrival order.
	for w := 0; w < 3; w++ {
		name := fmt.Sprintf("gated%d", w)
		d := time.Duration(4+8*w) * ms // 4ms (fires), 12ms (met exactly), 20ms (beaten)
		k.Go(name, func(p *Proc) {
			_, ok := gate.GetTimeout(p, d)
			step(name, fmt.Sprintf("gate ok=%v", ok))
			cpu.Use(p, ms)
			step(name, "ran")
		})
	}
	k.After(12*ms, func() { gate.Set("open"); step("kernel", "gate set") })

	// A consumer that times out on one queue, then blocks on another while a
	// value arrives on the first: the value must wait for the next Get.
	side, other := NewQueue(k), NewQueue(k)
	k.Go("poller", func(p *Proc) {
		_, _, to := side.GetTimeout(p, 3*ms)
		step("poller", fmt.Sprintf("side timedOut=%v", to))
		v, _ := other.Get(p)
		step("poller", fmt.Sprintf("other %v", v))
		v, ok, to := side.GetTimeout(p, ms)
		step("poller", fmt.Sprintf("side %v %v %v", v, ok, to))
		_, _, to = side.GetTimeout(p, 7*ms) // Put lands at the expiry instant
		step("poller", fmt.Sprintf("side again timedOut=%v", to))
	})
	k.After(6*ms, func() { side.Put("late"); step("kernel", "side put") })
	k.After(9*ms, func() { other.Put("go"); step("kernel", "other put") })
	k.After(16*ms, func() { side.Put("edge"); step("kernel", "side put edge") })

	// Stop between events so the first one past each deadline is put back.
	for _, deadline := range []time.Duration{1500 * time.Microsecond, 7 * ms, 7 * ms, 30 * ms} {
		if err := k.RunUntil(Time(deadline)); err != nil {
			t.Fatal(err)
		}
		step("driver", "deadline")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	step("driver", "drained")
	k.Shutdown()

	if got := h.Sum64(); got != oracleHash {
		t.Fatalf("firing order changed: hash %#x over %d steps, want %#x", got, steps, oracleHash)
	}
}
