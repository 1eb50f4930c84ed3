package lint

import (
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ that no non-test code of the module, bench/ included, uses: such
// a symbol is production code that only tests call. Analyzers see one
// package at a time, so this is a test. go/types resolves every use; a
// concrete method is also used when non-test code calls an interface method
// that it implements, and module interfaces' methods are checked too. The
// methods fmt and errors call (Error, String, Unwrap) are exempt, as are the
// test-support packages (chaos, crashtest, testutil), whose calls do not
// count either. A symbol that only its own package's tests use belongs in
// its export_test.go; one that other packages' tests need goes on
// testOnlyAllow with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	checkAllowList(t, testOnlyExports(loadModules(t)...), testOnlyAllow,
		"exported, but no non-test code calls it; delete it, move it into an export_test.go, or add it to testOnlyAllow with a reason",
		"testOnlyAllow entry %s is stale: non-test code calls it or it is gone")
}

// checkAllowList fails on every flagged symbol that allow lacks, and on
// every entry of allow that is not flagged.
func checkAllowList(t *testing.T, flagged []string, allow map[string]string, flagMsg, staleMsg string) {
	seen := map[string]bool{}
	for _, sym := range flagged {
		if seen[sym] = true; allow[sym] == "" {
			t.Errorf("%s: %s", sym, flagMsg)
		}
	}
	for sym := range allow {
		if !seen[sym] {
			t.Errorf(staleMsg, sym)
		}
	}
}

// testOnlyAllow holds the exported engine symbols that only tests call but
// that stay, each with its reason.
var testOnlyAllow = map[string]string{
	"btree.Tree.Stats":                 "core's scan tests tell index reads from record reads with it",
	"core.PN.LazyGC":                   "the log-truncation pass nothing schedules yet (ROADMAP item 18); core tests drive it",
	"durable.File.Close":               "releases the open file handles: telld keeps its WAL directory open until the process exits, and the durable tests close it",
	"durable.IsChunk":                  "store's fuzzy-checkpoint test picks chunk writes out of a backend log with it",
	"durable.NewMem":                   "the zero-latency backend the store, recovery, deploy and chaos tests run on",
	"durable.SliceSource":              "store's checkpoint test writes a state dump through it",
	"histcheck.History.CommittedState": "the chaos matrices compare it with the engine's final state",
	"histcheck.Report.ByKind":          "the chaos matrices count anomalies of one kind with it",
	"sanitize.Inversions":              "testutil's leak gate fails a telldebug suite on any inversion",
	"sim.Kernel.After":                 "the chaos plans schedule their timed fault events with it",
	"sim.Kernel.Parked":                "exp.TestKernelResidencyPlateaus samples kernel residency",
	"sim.Kernel.Pending":               "exp.TestKernelResidencyPlateaus samples kernel residency",
	"sim.Kernel.Procs":                 "exp.TestKernelResidencyPlateaus and deploy's tests sample kernel residency",
	"sim.Kernel.Run":                   "the sim, env, transport and resil tests run a kernel until its queue drains with it",
	"store.Manager.Failovers":          "the chaos matrices report fail-overs per cell",
	"store.Manager.Recoveries":         "recovery's SN-recovery test counts recovered ranges",
	"store.Manager.ResolveJournal":     "the migration journal is wired only in tests: no production manager journals or resolves (ROADMAP item 3(e))",
	"store.Manager.SetJournal":         "the migration journal is wired only in tests: no production manager journals or resolves (ROADMAP item 3(e))",
	"store.Node.CrashVolatile":         "the crash hook of the chaos and crashtest process-crash plans",
	"store.Node.CurrentMap":            "crashtest's migration sweep checks which node owns a range",
	"store.Node.RecoverAsync":          "the restart hook of the chaos process-crash plans",
	"store.Node.StateDump":             "crashtest diffs a recovered node against its model with it",
	"transport.TCPNet.Close":           "shuts the listeners down: the daemons serve until the process exits, and the transport and TCP integration tests close it",
	"transport.SimNet.SetFaultFn":      "the fault-injection hook of the chaos plans and the btree, core and tpcc tests",
}

// testSupportPkgs are the packages under internal/ that exist to serve tests.
var testSupportPkgs = map[string]bool{"chaos": true, "crashtest": true, "testutil": true}

// stdlibMethods are method names that fmt and errors call through their
// interfaces, so an implementation is used although no module code calls it.
var stdlibMethods = map[string]bool{"Error": true, "String": true, "Unwrap": true}

// modules loads the module and bench/ once for both gates, test variants
// included; bench/ is a module of its own.
var modules = sync.OnceValues(func() ([][]*Package, error) {
	tell, err := load("../..", true, []string{"./..."})
	if err != nil {
		return nil, err
	}
	bench, err := load("../../bench", true, []string{"./..."})
	return [][]*Package{tell, bench}, err
})

func loadModules(t *testing.T) [][]*Package {
	mods, err := modules()
	if err != nil {
		t.Fatal(err)
	}
	return mods
}

// objKey names a function, method or field as "pkg.Name" or "pkg.Type.Name"
// (pkg: the path below internal/, if any), so that it matches across the
// separately type-checked test variants and bench/, which objects do not.
func objKey(pkg *types.Package, recv types.Type, name string) string {
	path := pkg.Path()
	if _, rel, ok := strings.Cut(path, "/internal/"); ok {
		path = rel
	}
	if n := namedOf(recv); n != nil {
		path += "." + n.Obj().Name()
	}
	return path + "." + name
}

func recvOf(fn *types.Func) types.Type {
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		return r.Type()
	}
	return nil
}

func isIfaceMethod(fn *types.Func) bool { return recvOf(fn) != nil && types.IsInterface(recvOf(fn)) }

func funcKey(fn *types.Func) string { return objKey(fn.Pkg(), recvOf(fn), fn.Name()) }

// testOnlyExports returns, sorted as "pkg.Name" or "pkg.Type.Name", every
// exported function or method under the first module's internal/ (test
// support aside) that no non-test code of the modules uses. The other
// modules only use.
func testOnlyExports(mods ...[]*Package) []string {
	declared, used := map[string]*types.Func{}, map[string]bool{}
	ifaceMethods := map[*types.Func]bool{} // fn -> an interface method of the first module
	for m, pkgs := range mods {
		for _, pkg := range pkgs {
			_, rel, inInternal := strings.Cut(pkg.Types.Path(), "/internal/")
			if pkg.ForTest != "" || testSupportPkgs[rel] {
				continue
			}
			for _, obj := range pkg.Info.Uses {
				if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
					used[funcKey(fn.Origin())] = true
					ifaceMethods[fn] = m == 0 && isIfaceMethod(fn)
				}
			}
			for id, obj := range pkg.Info.Defs {
				if fn, ok := obj.(*types.Func); ok && m == 0 && inInternal && id.IsExported() && !(recvOf(fn) != nil && stdlibMethods[fn.Name()]) {
					declared[funcKey(fn)] = fn
					ifaceMethods[fn] = isIfaceMethod(fn)
				}
			}
		}
	}
	var unused []string
	for key, fn := range declared {
		if !used[key] && (recvOf(fn) == nil || !implementsUsed(fn, ifaceMethods, used)) {
			unused = append(unused, key)
		}
	}
	sort.Strings(unused)
	return unused
}

// implementsUsed reports whether fn is a concrete method that implements a
// used interface method.
func implementsUsed(fn *types.Func, ifaceMethods map[*types.Func]bool, used map[string]bool) bool {
	ptr := types.NewPointer(deref(recvOf(fn)))
	for im, isIface := range ifaceMethods {
		if isIface && !isIfaceMethod(fn) && im.Name() == fn.Name() && used[funcKey(im)] && types.Implements(ptr, recvOf(im).Underlying().(*types.Interface)) {
			return true
		}
	}
	return false
}
