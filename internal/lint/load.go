package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string // a test variant's is "p [p.test]" or "p_test [p.test]"
	ForTest    string // the package a test variant tests; "" for the package itself
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPkg is the subset of `go list -json` output the loader consumes.
type listedPkg struct {
	Dir        string
	ImportPath string
	Name       string
	Export     string
	ForTest    string
	Standard   bool
	DepOnly    bool
	GoFiles    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// goList runs `go list -e -json args...` in dir and decodes its packages,
// failing on the first package that reports an error.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list", "-e",
		"-json=Dir,ImportPath,Name,Export,ForTest,Standard,DepOnly,GoFiles,ImportMap,Error"}, args...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPkg)
		if err := dec.Decode(p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		pkgs = append(pkgs, p)
	}
}

// Load parses and type-checks the non-test Go files of the packages matched
// by patterns (relative to dir, e.g. "./...").
//
// There is no golang.org/x/tools dependency: the loader shells out to
// `go list -deps -export -json`, which compiles every dependency (standard
// library included) into the build cache and reports the export-data file
// per package; go/importer's gc importer then consumes those files via its
// lookup hook. This is the same arrangement `go vet` sets up for its
// analyzers, done by hand.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, false, patterns)
}

// load is Load, and with tests also the test variants of the matched
// packages: "p [p.test]", p's files and its in-package tests, and
// "p_test [p.test]", its external tests.
//
// The matched packages are type-checked in the dependency order go list
// prints, each importing the others from source, so they share one set of
// types.Objects; everything else they import comes from export data. A test
// variant imports everything from export data through its ImportMap: its
// imports include packages recompiled for the test, whose export data
// refers to the variant under test and not to its source-checked twin.
func load(dir string, tests bool, patterns []string) ([]*Package, error) {
	args := []string{"-deps", "-export"}
	if tests {
		args = append(args, "-test")
	}
	listed, err := goList(dir, append(args, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	fset := token.NewFileSet()
	exportImporter := func(importMap map[string]string) types.Importer {
		return importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			if m, ok := importMap[path]; ok {
				path = m
			}
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("lint: no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	deps := exportImporter(nil)
	checked := map[string]*types.Package{}
	fromSource := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return deps.Import(path)
	})

	var pkgs []*Package
	for _, p := range listed {
		base, variant := strings.CutSuffix(p.ImportPath, " ["+p.ForTest+".test]")
		var imp types.Importer
		switch {
		case p.Standard || p.DepOnly || strings.HasSuffix(p.ImportPath, ".test"):
			continue
		case !variant:
			imp = fromSource
		case base == p.ForTest || base == p.ForTest+"_test":
			imp = exportImporter(p.ImportMap)
		default: // a dependency recompiled for another package's test
			continue
		}
		pkg, err := check(fset, imp, p.ImportPath, p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
		if !variant {
			checked[p.ImportPath] = pkg.Types
		}
		pkg.ForTest = p.ForTest
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func check(fset *token.FileSet, imp types.Importer, importPath, dir string, goFiles []string) (*Package, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp}
	path, _, _ := strings.Cut(importPath, " ")
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}
