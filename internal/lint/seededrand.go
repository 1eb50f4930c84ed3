package lint

import (
	"go/ast"
)

// randPkgs are the import paths whose global generators are banned.
var randPkgs = []string{"math/rand", "math/rand/v2"}

// seededRandAllowed are the math/rand package-level functions that do not
// draw from the shared global source. Constructing an explicitly seeded
// generator is exactly what engine code should do (with a seed threaded
// from TELL_SEED / the experiment options).
var seededRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true, // takes a *Rand; has no global state
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

// SeededRand forbids the global math/rand functions (rand.Intn, rand.Perm,
// rand.Shuffle, ...) in sim-executed packages. The global source is seeded
// once per process and shared by every goroutine, so any draw from it makes
// data generation and workload choice unreplayable. Engine code must thread
// an explicit *rand.Rand derived from the run's seed (TELL_SEED,
// exp.Options.Seed, env.Ctx.Rand()).
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand functions in sim-executed packages; thread an explicitly " +
		"seeded *rand.Rand (TELL_SEED / exp.Options.Seed / env.Ctx.Rand) instead",
	Run: runSeededRand,
}

func runSeededRand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			for _, pkg := range randPkgs {
				fn := pkgLevelFunc(pass, sel, pkg)
				if fn == nil || seededRandAllowed[fn.Name()] {
					continue
				}
				pass.Reportf(sel.Pos(),
					"rand.%s draws from the process-global source and is not replayable; use an explicitly seeded *rand.Rand (derive the seed from TELL_SEED)",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
