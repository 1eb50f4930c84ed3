package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrDiscard flags dropped errors on durability- and wire-critical calls.
// A silently ignored Sync error can acknowledge an unsynced write; an
// ignored Close on a WAL handle can mask a lost flush; an ignored
// RoundTrip result can drop a protocol failure on the floor. The check
// fires when every error result of a call to one of the critical names is
// discarded — as a bare statement, a deferred call, or a blank assignment.
// Contract-infallible writers (bytes, strings, hash implementations) are
// allowlisted, a hash's Write included when it is called through hash.Hash,
// whose Write io.Writer declares; anything else needs explicit handling or
// a justified //lint:allow errdiscard annotation.
var ErrDiscard = &Analyzer{
	Name: "errdiscard",
	Doc:  "flag discarded errors on durability/wire-critical calls (Sync, Close, Flush, ...)",
	Run:  runErrDiscard,
}

// criticalNames are the method/function names whose errors guard
// durability or wire correctness.
var criticalNames = map[string]bool{
	"Sync":            true,
	"Close":           true,
	"Flush":           true,
	"Commit":          true,
	"Append":          true,
	"Put":             true,
	"Write":           true,
	"Encode":          true,
	"EncodeTo":        true,
	"RoundTrip":       true,
	"Rename":          true,
	"Truncate":        true,
	"TruncateBefore":  true,
	"WriteCheckpoint": true,
}

// errDiscardAllowPkgs are packages (and their subpackages) whose
// Write/Sync-family methods cannot fail by contract (their error results
// exist only to satisfy io interfaces).
var errDiscardAllowPkgs = []string{"bytes", "strings", "hash", "crypto"}

func runErrDiscard(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					checkDiscard(pass, call, "result discarded")
				}
			case *ast.DeferStmt:
				checkDiscard(pass, st.Call, "deferred with result discarded")
			case *ast.AssignStmt:
				checkBlankAssign(pass, st)
			}
			return true
		})
	}
	return nil
}

// criticalErrCall reports whether call targets a critical name and returns
// at least one error; errIdx lists the error result indices.
func criticalErrCall(pass *Pass, call *ast.CallExpr) (fn *types.Func, errIdx []int, ok bool) {
	fn = calleeFunc(pass, call)
	if fn == nil || !criticalNames[fn.Name()] {
		return nil, nil, false
	}
	if errDiscardAllowed(fn.Pkg()) {
		return nil, nil, false
	}
	if sel, ok := unparen(call.Fun).(*ast.SelectorExpr); ok && fn.Name() == "Write" {
		recv := pass.TypeOf(sel.X)
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if n, ok := recv.(*types.Named); ok && errDiscardAllowed(n.Obj().Pkg()) {
			return nil, nil, false
		}
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil {
		return nil, nil, false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			errIdx = append(errIdx, i)
		}
	}
	if len(errIdx) == 0 {
		return nil, nil, false
	}
	return fn, errIdx, true
}

// errDiscardAllowed reports whether pkg is, or is under, one of
// errDiscardAllowPkgs.
func errDiscardAllowed(pkg *types.Package) bool {
	for _, allowed := range errDiscardAllowPkgs {
		if pkg != nil && (pkg.Path() == allowed || strings.HasPrefix(pkg.Path(), allowed+"/")) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

func checkDiscard(pass *Pass, call *ast.CallExpr, how string) {
	fn, _, ok := criticalErrCall(pass, call)
	if !ok {
		return
	}
	pass.Reportf(call.Pos(), "error from %s.%s %s; durability/wire-critical errors must be handled (or //lint:allow errdiscard <reason>)",
		calleePkgName(fn), fn.Name(), how)
}

// checkBlankAssign flags `_ = f.Close()` style assignments where every
// error result lands in a blank identifier.
func checkBlankAssign(pass *Pass, st *ast.AssignStmt) {
	if len(st.Rhs) != 1 {
		return
	}
	call, ok := unparen(st.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	fn, errIdx, ok := criticalErrCall(pass, call)
	if !ok {
		return
	}
	for _, i := range errIdx {
		if i >= len(st.Lhs) {
			return
		}
		if id, ok := unparen(st.Lhs[i]).(*ast.Ident); !ok || id.Name != "_" {
			return
		}
	}
	pass.Reportf(call.Pos(), "error from %s.%s assigned to _; durability/wire-critical errors must be handled (or //lint:allow errdiscard <reason>)",
		calleePkgName(fn), fn.Name())
}
