package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestNoOneValueSettings fails on any setting that only its own default
// writes: a setting with one value in use is a constant. It is a go/parser
// walk over the whole module, tests and bench/ included, so a field that any
// caller, test or benchmark sets is kept.
//
// Covered are the exported fields of the struct types under internal/ whose
// names end in Config, Options, Params or Policy, and the exported non-func
// fields of the types named Client, Server, Manager, Node and Tree. A write
// is an assignment x.F = … (a tuple assignment's elements included), an
// x.F++, or an F: … key of a composite literal. A write is the field's own
// default when it sits in its owning package's non-test code and is either a
// key of a literal of the owning type inside a constructor (a function whose
// name starts with New or Default, in either case), or an assignment inside
// an if whose condition tests the same field against its zero value (the
// fill/defaults idiom).
//
// The x of x.F is typed by a per-function inference from receivers,
// parameters, results, var declarations, := of a literal or of a
// New…/Default… call, and struct fields. A write whose x it cannot type,
// and a key of a literal whose type is elided, count as writes of every
// covered field of that name, so the inference can hide a setting but never
// flag a set one.
//
// A setting that stays although only its default writes it goes on
// oneValueAllow with its reason.
func TestNoOneValueSettings(t *testing.T) {
	flagged, err := oneValueSettings("../..")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, f := range flagged {
		seen[f] = true
		if _, ok := oneValueAllow[f]; !ok {
			t.Errorf("%s: only its own default writes it; make it a constant in its package, or add it to oneValueAllow with a reason", f)
		}
	}
	for f := range oneValueAllow {
		if !seen[f] {
			t.Errorf("oneValueAllow entry %s is stale: something other than its default writes it, or it is gone", f)
		}
	}
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

// typeRef names a struct type of the module by its package directory,
// relative to the module root, and its name.
type typeRef struct{ pkg, name string }

// goFile is one parsed file of the module.
type goFile struct {
	*ast.File
	pkg     string // directory relative to the module root
	test    bool
	imports map[string]string // local name -> directory of a module package
}

// typeExpr is a type expression and the file it is written in.
type typeExpr struct {
	x  ast.Expr
	gf *goFile
}

// structField is one field of a struct type declared in the module.
type structField struct {
	typeExpr
	covered bool
}

// oneValueScan is the module's struct types and the writes found so far.
type oneValueScan struct {
	structs map[typeRef]map[string]*structField
	embeds  map[typeRef]bool    // struct types with embedded fields
	owner   map[string]string   // covered field -> its package directory
	written map[string]bool     // covered field -> has a write that is not its default
	byName  map[string][]string // field name -> covered fields of that name
}

// oneValueSettings returns, sorted as "pkg.Type.Field", every covered field
// whose only writes are its own defaults.
func oneValueSettings(root string) ([]string, error) {
	files, err := parseModule(root)
	if err != nil {
		return nil, err
	}
	s := &oneValueScan{
		structs: map[typeRef]map[string]*structField{},
		embeds:  map[typeRef]bool{},
		owner:   map[string]string{},
		written: map[string]bool{},
		byName:  map[string][]string{},
	}
	for _, gf := range files {
		s.declare(gf)
	}
	for _, gf := range files {
		for _, decl := range gf.Decls {
			fs := &funcScan{oneValueScan: s, gf: gf, scope: map[string]typeExpr{}}
			if fn, ok := decl.(*ast.FuncDecl); ok {
				fs.ctor = hasCtorPrefix(fn.Name.Name)
				fs.bind(fn.Recv)
				fs.bind(fn.Type.Params)
				fs.bind(fn.Type.Results)
			}
			fs.walk(decl)
		}
	}
	var out []string
	for k, w := range s.written {
		if !w {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out, nil
}

// declare records the struct types gf declares.
func (s *oneValueScan) declare(gf *goFile) {
	for _, decl := range gf.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE {
			continue
		}
		for _, spec := range gd.Specs {
			ts := spec.(*ast.TypeSpec)
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			ref := typeRef{gf.pkg, ts.Name.Name}
			covered := !gf.test && strings.HasPrefix(gf.pkg, "internal/") && coveredType(ts.Name.Name)
			fields := map[string]*structField{}
			for _, fl := range st.Fields.List {
				if len(fl.Names) == 0 {
					s.embeds[ref] = true
				}
				_, isFunc := fl.Type.(*ast.FuncType)
				for _, n := range fl.Names {
					f := &structField{typeExpr{fl.Type, gf}, covered && n.IsExported() && (!isFunc || !oneValueTypes[ts.Name.Name])}
					fields[n.Name] = f
					if f.covered {
						key := fieldKey(ref, n.Name)
						s.owner[key], s.written[key] = ref.pkg, false
						s.byName[n.Name] = append(s.byName[n.Name], key)
					}
				}
			}
			s.structs[ref] = fields
		}
	}
}

// field finds the field name of type ref. known is false when the scan
// cannot tell: ref is no module struct, or name may be promoted from an
// embedded field.
func (s *oneValueScan) field(ref typeRef, name string) (key string, f *structField, known bool) {
	fields, ok := s.structs[ref]
	if !ok {
		return "", nil, false
	}
	if f, ok := fields[name]; ok {
		return fieldKey(ref, name), f, true
	}
	return "", nil, !s.embeds[ref]
}

// record notes a write of the covered fields keys made in gf; isDefault says
// whether it has the shape of a default write.
func (s *oneValueScan) record(gf *goFile, keys []string, isDefault bool) {
	for _, k := range keys {
		if gf.test || gf.pkg != s.owner[k] || !isDefault {
			s.written[k] = true
		}
	}
}

// fieldKey renders a field as "pkg.Type.Field", the package being the
// directory below internal/.
func fieldKey(ref typeRef, name string) string {
	return strings.TrimPrefix(ref.pkg, "internal/") + "." + ref.name + "." + name
}

func coveredType(name string) bool {
	if oneValueTypes[name] {
		return true
	}
	for _, s := range oneValueSuffixes {
		if strings.HasSuffix(name, s) {
			return true
		}
	}
	return false
}

func hasCtorPrefix(name string) bool {
	l := strings.ToLower(name)
	return strings.HasPrefix(l, "new") || strings.HasPrefix(l, "default")
}

// parseModule parses every Go file under root, tests and nested modules
// included, skipping testdata and hidden directories.
func parseModule(root string) ([]*goFile, error) {
	fset := token.NewFileSet()
	var files []*goFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		gf := &goFile{File: f, pkg: filepath.ToSlash(rel), test: strings.HasSuffix(path, "_test.go"), imports: map[string]string{}}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			dir, ok := strings.CutPrefix(p, "tell/")
			if p == "tell" {
				dir, ok = ".", true
			}
			if !ok {
				continue
			}
			local := dir[strings.LastIndex(dir, "/")+1:]
			if im.Name != nil {
				local = im.Name.Name
			}
			gf.imports[local] = dir
		}
		files = append(files, gf)
		return nil
	})
	return files, err
}

// refOf resolves T, *T or pkg.T to a type name of the module.
func refOf(t typeExpr) (typeRef, bool) {
	switch x := unparen(t.x).(type) {
	case *ast.StarExpr:
		return refOf(typeExpr{x.X, t.gf})
	case *ast.Ident:
		return typeRef{t.gf.pkg, x.Name}, true
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			if dir, ok := t.gf.imports[id.Name]; ok {
				return typeRef{dir, x.Sel.Name}, true
			}
		}
	}
	return typeRef{}, false
}

// funcScan finds the field writes of one top-level declaration.
type funcScan struct {
	*oneValueScan
	gf    *goFile
	ctor  bool                // the declaration is a constructor
	scope map[string]typeExpr // variable -> its inferred type
	conds []ast.Expr          // conditions of the enclosing if bodies
}

func (fs *funcScan) bind(fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, f := range fl.List {
		for _, n := range f.Names {
			fs.scope[n.Name] = typeExpr{f.Type, fs.gf}
		}
	}
}

func (fs *funcScan) walk(n ast.Node) {
	switch n := n.(type) {
	case *ast.FuncLit:
		fs.bind(n.Type.Params)
		fs.bind(n.Type.Results)
	case *ast.ValueSpec:
		for i, id := range n.Names {
			if n.Type != nil {
				fs.scope[id.Name] = typeExpr{n.Type, fs.gf}
			} else if i < len(n.Values) {
				fs.bindValue(id, n.Values[i])
			}
		}
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			if n.Tok != token.DEFINE {
				fs.selectorWrite(lhs)
			} else if id, ok := lhs.(*ast.Ident); ok && len(n.Lhs) == len(n.Rhs) {
				fs.bindValue(id, n.Rhs[i])
			}
		}
	case *ast.IncDecStmt:
		fs.selectorWrite(n.X)
	case *ast.IfStmt:
		if n.Init != nil {
			fs.walk(n.Init)
		}
		fs.walk(n.Cond)
		fs.conds = append(fs.conds, n.Cond)
		fs.walk(n.Body)
		fs.conds = fs.conds[:len(fs.conds)-1]
		if n.Else != nil {
			fs.walk(n.Else)
		}
		return
	case *ast.CompositeLit:
		fs.literal(n)
	}
	ast.Inspect(n, func(c ast.Node) bool {
		if c == n {
			return true
		}
		if c != nil {
			fs.walk(c)
		}
		return false
	})
}

// bindValue types id from the value bound to it: a literal, the address of
// one, or a New…/Default… call.
func (fs *funcScan) bindValue(id *ast.Ident, v ast.Expr) {
	if u, ok := unparen(v).(*ast.UnaryExpr); ok && u.Op == token.AND {
		v = u.X
	}
	switch e := unparen(v).(type) {
	case *ast.CompositeLit:
		if e.Type != nil {
			fs.scope[id.Name] = typeExpr{e.Type, fs.gf}
		}
	case *ast.CallExpr:
		fun := e.Fun
		sel, qualified := fun.(*ast.SelectorExpr)
		if qualified {
			fun = sel.Sel
		}
		name, ok := fun.(*ast.Ident)
		if !ok {
			return
		}
		for _, p := range []string{"New", "Default"} {
			if t, ok := strings.CutPrefix(name.Name, p); ok && t != "" {
				var x ast.Expr = ast.NewIdent(t)
				if qualified {
					x = &ast.SelectorExpr{X: sel.X, Sel: ast.NewIdent(t)}
				}
				fs.scope[id.Name] = typeExpr{x, fs.gf}
			}
		}
	}
}

// typeOf infers the type of the x in x.F.
func (fs *funcScan) typeOf(x ast.Expr) (typeExpr, bool) {
	switch e := unparen(x).(type) {
	case *ast.Ident:
		t, ok := fs.scope[e.Name]
		return t, ok
	case *ast.StarExpr:
		return fs.typeOf(e.X)
	case *ast.SelectorExpr:
		if t, ok := fs.typeOf(e.X); ok {
			if ref, ok := refOf(t); ok {
				if _, f, _ := fs.field(ref, e.Sel.Name); f != nil {
					return f.typeExpr, true
				}
			}
		}
	}
	return typeExpr{}, false
}

// targets returns the covered fields that a write of name on a value of type
// t may hit, and whether t was resolved: then the one field of that type,
// else every covered field so named.
func (fs *funcScan) targets(t typeExpr, typed bool, name string) (keys []string, resolved bool) {
	if typed {
		if ref, ok := refOf(t); ok {
			if key, f, known := fs.field(ref, name); known {
				if f == nil {
					return nil, true
				}
				return []string{key}, true
			}
		}
	}
	return fs.byName[name], false
}

// selectorWrite records an assignment to x.F.
func (fs *funcScan) selectorWrite(lhs ast.Expr) {
	sel, ok := unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return
	}
	t, typed := fs.typeOf(sel.X)
	keys, _ := fs.targets(t, typed, sel.Sel.Name)
	zeroBranch := false
	for _, c := range fs.conds {
		zeroBranch = zeroBranch || testsZero(c, sel.Sel.Name)
	}
	fs.record(fs.gf, keys, zeroBranch)
}

// literal records the keyed fields of a struct literal.
func (fs *funcScan) literal(cl *ast.CompositeLit) {
	switch cl.Type.(type) {
	case *ast.ArrayType, *ast.MapType:
		return
	}
	for _, e := range cl.Elts {
		if kv, ok := e.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok {
				keys, resolved := fs.targets(typeExpr{cl.Type, fs.gf}, cl.Type != nil, id.Name)
				fs.record(fs.gf, keys, resolved && fs.ctor)
			}
		}
	}
}

// testsZero reports whether cond compares x.name (or x.name.G…) with its zero
// value, or negates it.
func testsZero(cond ast.Expr, name string) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			found = found || (e.Op == token.EQL || e.Op == token.LEQ) && isField(e.X, name) && isZero(e.Y)
		case *ast.UnaryExpr:
			found = found || e.Op == token.NOT && isField(e.X, name)
		}
		return !found
	})
	return found
}

// isField reports whether x is x.F, or x.F.G…, with F = name.
func isField(x ast.Expr, name string) bool {
	for {
		sel, ok := unparen(x).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if sel.Sel.Name == name {
			return true
		}
		x = sel.X
	}
}

func isZero(x ast.Expr) bool {
	switch v := unparen(x).(type) {
	case *ast.BasicLit:
		return v.Value == "0" || v.Value == `""`
	case *ast.Ident:
		return v.Name == "nil" || v.Name == "false"
	case *ast.CompositeLit:
		return len(v.Elts) == 0
	}
	return false
}
