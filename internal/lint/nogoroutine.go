package lint

import (
	"go/ast"
)

// NoGoroutine forbids raw `go` statements in sim-executed packages. A bare
// goroutine runs preemptively on the Go scheduler, outside the kernel's
// strict one-process-at-a-time hand-off, so its interleaving with simulated
// activities differs run to run. Concurrency in engine code must spawn
// through env.Node.Go / env.Ctx.Go (which the simulated environment routes
// to sim.Kernel.Spawn) so the kernel owns the schedule.
var NoGoroutine = &Analyzer{
	Name: "nogoroutine",
	Doc: "forbid raw go statements in sim-executed packages; spawn activities via " +
		"env.Node.Go / env.Ctx.Go so the DES kernel schedules them",
	Run: runNoGoroutine,
}

func runNoGoroutine(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(),
					"raw goroutine bypasses the DES kernel's deterministic scheduler; spawn via env.Node.Go / env.Ctx.Go")
			}
			return true
		})
	}
	return nil
}
