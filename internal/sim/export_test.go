package sim

import "time"

// RunFor runs the simulation for d virtual time from now.
func (k *Kernel) RunFor(d time.Duration) error { return k.RunUntil(k.now.Add(d)) }

// Go spawns a sibling process.
func (p *Proc) Go(name string, fn func(p *Proc)) *Proc { return p.k.Go(name, fn) }

// NewFuture returns an unset future. A future needs no kernel of its own: it
// reaches the kernel through the processes that wait on it.
func NewFuture(*Kernel) *Future { return new(Future) }

type runnerFunc func(p *Proc)

func (f runnerFunc) Run(p *Proc) { f(p) }

// Go spawns a new process that begins executing at the current virtual time.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.Spawn("", name, runnerFunc(fn))
}
