package lint

import (
	"go/ast"
	"sort"
	"strings"
	"testing"
)

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ that no non-test code of the module calls, bench/ included: such
// a symbol is production code that only tests call. It is a test rather than
// a tellvet analyzer because analyzers see one package at a time and cannot
// find callers in other packages.
//
// The scan is by name: a declaration counts as used when its name appears as
// an identifier in non-test code other than a function declaration's own name.
// Methods that fmt and errors call (Error, String, Unwrap) are exempt;
// interfaces declared in the module name their methods, so their
// implementations count as used. The test-support packages (chaos,
// crashtest, testutil) declare test helpers by design, so their exports are
// not checked and their calls do not count.
//
// A symbol that only its own package's tests use belongs in that package's
// export_test.go. One that other packages' tests need goes on testOnlyAllow
// with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	unused, err := testOnlyExports("../..")
	if err != nil {
		t.Fatal(err)
	}
	flagged := map[string]bool{}
	for _, sym := range unused {
		flagged[sym] = true
		if _, ok := testOnlyAllow[sym]; !ok {
			t.Errorf("%s: exported, but no non-test code calls it; delete it, move it into an export_test.go, or add it to testOnlyAllow with a reason", sym)
		}
	}
	for sym := range testOnlyAllow {
		if !flagged[sym] {
			t.Errorf("testOnlyAllow entry %s is stale: non-test code calls it or it is gone", sym)
		}
	}
}

// testOnlyAllow holds the exported engine symbols that only tests call but
// that stay, each with its reason.
var testOnlyAllow = map[string]string{
	"core.PN.LazyGC":                   "the log-truncation pass nothing schedules yet (ROADMAP item 15); core tests drive it",
	"durable.IsChunk":                  "store's fuzzy-checkpoint test picks chunk writes out of a backend log with it",
	"durable.NewMem":                   "the zero-latency backend the store, recovery, deploy and chaos tests run on",
	"durable.SliceSource":              "store's checkpoint test writes a state dump through it",
	"histcheck.History.CommittedState": "the chaos matrices compare it with the engine's final state",
	"histcheck.Report.ByKind":          "the chaos matrices count anomalies of one kind with it",
	"sanitize.Inversions":              "testutil's leak gate fails a telldebug suite on any inversion",
	"sim.Kernel.Parked":                "exp.TestKernelResidencyPlateaus samples kernel residency",
	"sim.Kernel.Pending":               "exp.TestKernelResidencyPlateaus samples kernel residency",
	"sim.Kernel.Procs":                 "exp.TestKernelResidencyPlateaus and deploy's tests sample kernel residency",
	"store.Manager.Failovers":          "the chaos matrices report fail-overs per cell",
	"store.Manager.Recoveries":         "recovery's SN-recovery test counts recovered ranges",
	"store.Manager.ResolveJournal":     "the migration journal is wired only in tests: no production manager journals or resolves (ROADMAP item 3(e))",
	"store.Manager.SetJournal":         "the migration journal is wired only in tests: no production manager journals or resolves (ROADMAP item 3(e))",
	"store.Node.CrashVolatile":         "the crash hook of the chaos and crashtest process-crash plans",
	"store.Node.CurrentMap":            "crashtest's migration sweep checks which node owns a range",
	"store.Node.RecoverAsync":          "the restart hook of the chaos process-crash plans",
	"store.Node.StateDump":             "crashtest diffs a recovered node against its model with it",
	"transport.SimNet.SetFaultFn":      "the fault-injection hook of the chaos plans and the btree, core and tpcc tests",
}

// testSupportPkgs are the packages under internal/ that exist to serve tests.
var testSupportPkgs = map[string]bool{"chaos": true, "crashtest": true, "testutil": true}

// stdlibMethods are method names that fmt and errors call through their
// interfaces, so an implementation is used although its name appears
// nowhere else.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// testOnlyExports returns, sorted, every exported function or method declared
// in non-test files under root/internal (test-support packages aside) whose
// name no non-test file under root uses, as "pkg.Name" or "pkg.Recv.Name".
func testOnlyExports(root string) ([]string, error) {
	files, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	used := map[string]bool{}
	declared := map[string]string{} // key -> name
	for _, f := range files {
		pkg, inInternal := strings.CutPrefix(f.pkg, "internal/")
		if f.test || testSupportPkgs[pkg] {
			continue
		}
		names := map[*ast.Ident]bool{}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			names[fn.Name] = true
			if !inInternal || !fn.Name.IsExported() || (fn.Recv != nil && stdlibMethods[fn.Name.Name]) {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[key] = fn.Name.Name
		}
		ast.Inspect(f.File, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !names[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	var unused []string
	for key, name := range declared {
		if !used[name] {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// recvName is the type name of a method receiver: T for T and *T.
func recvName(x ast.Expr) string {
	if star, ok := x.(*ast.StarExpr); ok {
		x = star.X
	}
	if id, ok := x.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
