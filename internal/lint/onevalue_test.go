package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestNoOneValueSettings fails on any setting that only its own default
// writes: a setting with one value in use is a constant. Every file of the
// module and bench/ counts, tests included. Covered are the exported fields
// of the struct types under internal/ whose names end in Config, Options,
// Params or Policy, and the exported non-func fields of the types named
// Client, Server, Manager, Node and Tree. A write is x.F = … (in a tuple
// assignment too), x.F++, or a struct literal's F: … key, its field resolved
// by go/types. It is the field's own default when it sits in the owning
// package's non-test code and is a literal key inside a constructor (a
// function whose name starts with New or Default, in either case) or an
// assignment inside an if whose condition tests the same field against its
// zero value (the fill/defaults idiom). A setting that stays anyway goes on
// oneValueAllow with its reason.
func TestNoOneValueSettings(t *testing.T) {
	checkAllowList(t, oneValueSettings(loadModules(t)...), oneValueAllow,
		"only its own default writes it; make it a constant in its package, or add it to oneValueAllow with a reason",
		"oneValueAllow entry %s is stale: something other than its default writes it, or it is gone")
}

// oneValueAllow holds the settings that only their default writes but that
// stay, each with its reason.
var oneValueAllow = map[string]string{
	"commitmgr.Client.Resil":    "the client's retrier is state, not a setting: exp retunes its policies in place, and exp and bench/ merge its retry schedule into the run's digest",
	"core.Config.Costs":         "a cost calibration table, which ROADMAP item 9's sensitivity sweep varies",
	"fdblike.Config.Costs":      "a cost calibration table, which ROADMAP item 9's sensitivity sweep varies",
	"ndblike.Config.Costs":      "a cost calibration table, which ROADMAP item 9's sensitivity sweep varies",
	"store.Client.Resil":        "the client's retrier is state, not a setting: exp retunes its policies in place, tests swap its breakers, and exp and bench/ merge its retry schedule into the run's digest",
	"store.ClusterConfig.Costs": "a cost calibration table, which ROADMAP item 9's sensitivity sweep varies",
	"voltlike.Config.Costs":     "a cost calibration table, which ROADMAP item 9's sensitivity sweep varies",
}

// oneValueSuffixes and oneValueTypes name the covered struct types.
var (
	oneValueSuffixes = []string{"Config", "Options", "Params", "Policy"}
	oneValueTypes    = map[string]bool{"Client": true, "Server": true, "Manager": true, "Node": true, "Tree": true}
)

// ctorName matches a constructor's name.
var ctorName = regexp.MustCompile(`^(?i:new|default)`)

// oneValueSettings returns, sorted as "pkg.Type.Field", every covered field
// of the first module whose only writes are its own defaults.
func oneValueSettings(mods ...[]*Package) []string {
	written := map[string]bool{} // covered field -> has a write that is not its default
	for _, pkg := range mods[0] {
		for _, name := range pkg.Types.Scope().Names() {
			tn, _ := pkg.Types.Scope().Lookup(name).(*types.TypeName)
			covered := oneValueTypes[name] || slices.ContainsFunc(oneValueSuffixes, func(s string) bool { return strings.HasSuffix(name, s) })
			if tn == nil || !covered || pkg.ForTest != "" || !strings.Contains(pkg.Types.Path(), "/internal/") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := range st.NumFields() {
					f := st.Field(i)
					if _, isFunc := f.Type().Underlying().(*types.Signature); f.Exported() && (!isFunc || !oneValueTypes[name]) {
						written[objKey(pkg.Types, tn.Type(), f.Name())] = false
					}
				}
			}
		}
	}
	for _, pkgs := range mods {
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				// A test variant repeats its package's non-test files.
				if test := strings.HasSuffix(pkg.Fset.File(f.Pos()).Name(), "_test.go"); test == (pkg.ForTest != "") {
					scanWrites(pkg, f, !test, written)
				}
			}
		}
	}
	var out []string
	for k, w := range written {
		if !w {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// scanWrites marks in written the covered fields that file f of pkg writes
// other than as their default; nonTest says f is not a test file.
func scanWrites(pkg *Package, f *ast.File, nonTest bool, written map[string]bool) {
	info := pkg.Info
	record := func(owner types.Type, field *types.Var, isDefault func() bool) {
		key := objKey(field.Pkg(), owner, field.Name())
		if w, covered := written[key]; covered && !w {
			written[key] = !(nonTest && field.Pkg() == pkg.Types && isDefault())
		}
	}
	for _, decl := range f.Decls {
		fn, _ := decl.(*ast.FuncDecl)
		ctor := fn != nil && ctorName.MatchString(fn.Name.Name)
		var stack []ast.Node // decl's nodes from the root down to the current one
		assign := func(lhs ast.Expr) {
			sel, _ := unparen(lhs).(*ast.SelectorExpr)
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				// The field's owner is the type of the last embedded field on the way.
				owner := s.Recv()
				for _, i := range s.Index()[:len(s.Index())-1] {
					owner = deref(owner).Underlying().(*types.Struct).Field(i).Type()
				}
				field := s.Obj().(*types.Var).Origin()
				record(owner, field, func() bool {
					for i, n := range stack[:len(stack)-1] {
						if ifs, ok := n.(*ast.IfStmt); ok && stack[i+1] == ifs.Body && testsZero(info, ifs.Cond, field) {
							return true
						}
					}
					return false
				})
			}
		}
		ast.Inspect(decl, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			stack = append(stack, n)
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					assign(lhs)
				}
			case *ast.IncDecStmt:
				assign(n.X)
			case *ast.KeyValueExpr: // in a struct literal, go/types resolves the key to its field
				id, _ := n.Key.(*ast.Ident)
				if field, ok := info.Uses[id].(*types.Var); ok && field.IsField() {
					record(info.Types[stack[len(stack)-2].(ast.Expr)].Type, field.Origin(), func() bool { return ctor })
				}
			}
			return true
		})
	}
}

// testsZero reports whether cond compares field, or x.field.G…, with its
// zero value (nil, false, 0, "" or an empty literal), or negates it.
func testsZero(info *types.Info, cond ast.Expr, field *types.Var) bool {
	isField := func(x ast.Expr) bool {
		for sel, ok := unparen(x).(*ast.SelectorExpr); ok; sel, ok = unparen(sel.X).(*ast.SelectorExpr) {
			if s := info.Selections[sel]; s != nil && s.Obj() == types.Object(field) {
				return true
			}
		}
		return false
	}
	isZero := func(x ast.Expr) bool {
		tv := info.Types[x]
		cl, isLit := unparen(x).(*ast.CompositeLit)
		return tv.IsNil() || tv.Value != nil && slices.Contains([]string{"0", `""`, "false"}, tv.Value.ExactString()) || isLit && len(cl.Elts) == 0
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			found = found || (e.Op == token.EQL || e.Op == token.LEQ) && isField(e.X) && isZero(e.Y)
		case *ast.UnaryExpr:
			found = found || e.Op == token.NOT && isField(e.X)
		}
		return !found
	})
	return found
}
