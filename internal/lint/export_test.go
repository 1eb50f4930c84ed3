package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// LoadDir parses and type-checks a single directory of Go files as one
// package outside any module — the fixture loader for analyzer tests.
// Imports resolve against the dependency closure of the packages listed in
// deps, which must be importable from modDir.
func LoadDir(fixtureDir, modDir string, deps ...string) (*Package, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=Dir,ImportPath,Name,Export,Standard,GoFiles",
	}, deps...)
	cmd := exec.Command("go", args...)
	cmd.Dir = modDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", deps, err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
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
