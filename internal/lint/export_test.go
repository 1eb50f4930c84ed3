package lint

import (
	"errors"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
)

// LoadDir parses and type-checks a single directory of Go files as one
// package outside any module — the fixture loader for analyzer tests.
// Imports resolve against the dependency closure of the packages listed in
// deps, which must be importable from modDir.
func LoadDir(fixtureDir, modDir string, deps ...string) (*Package, error) {
	listed, err := goList(modDir, append([]string{"-deps", "-export"}, deps...)...)
	if err != nil {
		return nil, err
	}
	exports := map[string]string{}
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, errors.New("lint: no fixture files in " + fixtureDir)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: fixture imports %q, not in the fixture dep closure", path)
		}
		return os.Open(f)
	}
	imp := importer.ForCompiler(fset, "gc", lookup)
	return check(fset, imp, "fixture", fixtureDir, names)
}
