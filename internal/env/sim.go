package env

import (
	"math/rand"
	"time"

	"tell/internal/sim"
	"tell/internal/trace"
)

// simEnv adapts the discrete-event simulator to the Env interfaces.
type simEnv struct {
	k  *sim.Kernel
	tr *trace.Recorder
	// ctxs holds the contexts of finished activities for the next spawn to
	// take. A plain slice: the kernel runs one activity at a time.
	ctxs []*simCtx
}

// NewSim wraps kernel k as an environment. The caller drives the simulation
// by calling k.Run (or RunUntil) after spawning activities.
func NewSim(k *sim.Kernel) Full { return &simEnv{k: k} }

func (e *simEnv) SetTracer(r *trace.Recorder) { e.tr = r }
func (e *simEnv) Tracer() *trace.Recorder     { return e.tr }

func (e *simEnv) Now() time.Duration { return e.k.Now().Duration() }

func (e *simEnv) NewNode(name string, cores int) Node {
	n := &simNode{env: e, name: name, cpu: sim.NewResource(e.k, cores)}
	// Per-core busy intervals feed the trace's core tracks and the node
	// utilization series. CoreRun is a no-op on a nil recorder.
	n.cpu.OnUse = func(unit int, start, end sim.Time) {
		e.tr.CoreRun(n.name, unit, start.Duration(), end.Duration())
	}
	return n
}

func (e *simEnv) NewQueue() Queue   { return &simQueue{q: sim.NewQueue(e.k)} }
func (e *simEnv) NewFuture() Future { return new(simFuture) }

type simNode struct {
	env  *simEnv
	name string
	cpu  *sim.Resource
}

func (n *simNode) Name() string { return n.name }

func (n *simNode) Go(name string, fn func(ctx Ctx)) {
	n.goScoped(name, trace.Scope{R: n.env.tr}, fn)
}

// goScoped spawns an activity whose context starts with the given tracing
// scope (recorder + causal parent span; never the latency aggregator).
func (n *simNode) goScoped(name string, sc trace.Scope, fn func(ctx Ctx)) {
	e := n.env
	var c *simCtx
	if last := len(e.ctxs) - 1; last >= 0 {
		c, e.ctxs[last] = e.ctxs[last], nil
		e.ctxs = e.ctxs[:last]
	} else {
		c = new(simCtx)
	}
	c.node, c.sc, c.fn = n, sc, fn
	e.k.Spawn(n.name, name, c)
}

// simCtx is the context of one activity and, as a sim.Runner, the body of
// the process that runs it, so that a spawn needs no closure. A Ctx is only
// valid within its activity, which is what lets the next activity have it.
type simCtx struct {
	node *simNode
	p    *sim.Proc
	sc   trace.Scope
	fn   func(ctx Ctx)
}

// Run executes the activity on process p.
func (c *simCtx) Run(p *sim.Proc) {
	c.p = p
	c.fn(c)
	// Reached only when fn returned: an activity that panicked or left
	// through runtime.Goexit keeps its context.
	e := c.node.env
	*c = simCtx{}
	e.ctxs = append(e.ctxs, c)
}

func (c *simCtx) Node() Node            { return c.node }
func (c *simCtx) Now() time.Duration    { return c.p.Now().Duration() }
func (c *simCtx) Sleep(d time.Duration) { c.p.Sleep(d) }
func (c *simCtx) Trace() *trace.Scope   { return &c.sc }

func (c *simCtx) Work(d time.Duration) {
	if c.sc.Agg == nil {
		c.node.cpu.Use(c.p, d)
		return
	}
	// Split the elapsed time into CPU service and core-queue wait for the
	// transaction this activity is driving.
	t0 := c.p.Now()
	c.node.cpu.Use(c.p, d)
	c.sc.Agg.Add(trace.CompService, d)
	c.sc.Agg.Add(trace.CompCoreWait, c.p.Now().Sub(t0)-d)
}

func (c *simCtx) Go(name string, fn func(ctx Ctx)) {
	// Children inherit the recorder and causal parent, but not the
	// aggregator: a transaction's time is only attributed from the one
	// context driving it, so parallel sub-activities can't double-count.
	c.node.goScoped(name, trace.Scope{R: c.sc.R, Span: c.sc.Span}, fn)
}

func (c *simCtx) Rand() *rand.Rand { return c.node.env.k.Rand() }

// proc extracts the sim process from a simulated Ctx. Simulation-only
// components (for example the simulated network) use it to block callers.
func proc(ctx Ctx) *sim.Proc { return ctx.(*simCtx).p }

// Proc returns the simulation process behind a simulated Ctx. It panics if
// ctx belongs to the real environment; callers should check Kernel first.
func Proc(ctx Ctx) *sim.Proc { return proc(ctx) }

// Kernel returns the sim kernel behind a simulated Ctx, or nil if ctx
// belongs to the real environment.
func Kernel(ctx Ctx) *sim.Kernel {
	if c, ok := ctx.(*simCtx); ok {
		return c.p.Kernel()
	}
	return nil
}

type simQueue struct{ q *sim.Queue }

func (s *simQueue) Put(v any) { s.q.Put(v) }
func (s *simQueue) Close()    { s.q.Close() }
func (s *simQueue) Len() int  { return s.q.Len() }

func (s *simQueue) TryGet() (any, bool) { return s.q.TryGet() }

func (s *simQueue) Get(ctx Ctx) (any, bool) { return s.q.Get(proc(ctx)) }

func (s *simQueue) GetTimeout(ctx Ctx, d time.Duration) (any, bool, bool) {
	return s.q.GetTimeout(proc(ctx), d)
}

type simFuture struct{ f sim.Future }

func (s *simFuture) Set(v any)       { s.f.Set(v) }
func (s *simFuture) IsSet() bool     { return s.f.IsSet() }
func (s *simFuture) Get(ctx Ctx) any { return s.f.Get(proc(ctx)) }
func (s *simFuture) GetTimeout(ctx Ctx, d time.Duration) (any, bool) {
	return s.f.GetTimeout(proc(ctx), d)
}
