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
)

// Package is one loaded, parsed and type-checked package.
type Package struct {
	ImportPath string
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
	Standard   bool
	GoFiles    []string
	Error      *struct{ Err string }
}

// Load parses and type-checks the non-test Go files of the packages matched
// by patterns (relative to dir, e.g. "./..."), resolving imports through
// compiler export data.
//
// There is no golang.org/x/tools dependency: the loader shells out to
// `go list -deps -export -json`, which compiles every dependency (standard
// library included) into the build cache and reports the export-data file
// per package; go/importer's gc importer then consumes those files via its
// lookup hook. This is the same arrangement `go vet` sets up for its
// analyzers, done by hand.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"list", "-deps", "-export", "-e",
		"-json=Dir,ImportPath,Name,Export,Standard,GoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.String())
	}

	exports := map[string]string{}
	var targets []*listedPkg
	matched := map[string]bool{}
	// `go list -deps pattern...` prints the dependency closure; the
	// packages named by the patterns are exactly those whose ImportPath
	// reappears when listing without -deps. Cheaper: a package is a target
	// if it is non-standard and belongs to the patterns' module — callers
	// here always lint the current module, so "not Standard" is the test.
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: go list output: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.Standard && !matched[p.ImportPath] {
			matched[p.ImportPath] = true
			q := p
			targets = append(targets, &q)
		}
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)

	var pkgs []*Package
	for _, t := range targets {
		pkg, err := check(fset, imp, t.ImportPath, t.Dir, t.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

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
	tpkg, err := conf.Check(importPath, fset, files, info)
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
