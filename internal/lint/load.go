package lint

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
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

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	// TestScope marks the test variants of a package: the
	// test-augmented package (GoFiles plus in-package _test.go files)
	// and the external test package (package foo_test). Run only
	// applies IncludeTests analyzers to them and keeps only their
	// _test.go diagnostics.
	TestScope bool
}

// listedPackage is the subset of `go list -json` output the loader
// consumes. DepOnly marks packages listed only because a matched
// package depends on them; Export is the compiled export-data file.
type listedPackage struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ForTest      string
	Export       string
	Standard     bool
	DepOnly      bool
	Error        *struct{ Err string }
}

// Load lists the packages matching patterns (relative to dir, which
// must be inside the module), parses their Go files, and type-checks
// them against export data emitted by the go toolchain. This works
// fully offline: `go list -deps -test -export` compiles dependencies
// (test dependencies included) into the build cache and reports the
// export file per package, and the standard library's gc importer
// reads those files back.
//
// Each matched package yields up to three entries: the package
// itself, a TestScope variant re-checked with its in-package _test.go
// files, and a TestScope package for its external tests (package
// foo_test), so analyzers can opt into test files via IncludeTests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return load(dir, "", patterns)
}

// load is Load under a go -overlay file, if any: packages compile, and
// files parse, with its replacements; the tree is not read for them.
func load(dir, overlay string, patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var ov struct{ Replace map[string]string }
	if overlay != "" {
		data, err := os.ReadFile(overlay)
		if err == nil {
			err = json.Unmarshal(data, &ov)
		}
		if err != nil {
			return nil, fmt.Errorf("lint: overlay: %w", err)
		}
		patterns = append([]string{"-overlay=" + overlay}, patterns...)
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, p := range listed {
		if p.Standard || p.DepOnly || !isBasePackage(p) {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", p.ImportPath, p.Error.Err)
		}
		base, err := check(fset, newImporter(fset, exports, ""), p, p.ImportPath, p.GoFiles, false, ov.Replace)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, base)
		if len(p.TestGoFiles) > 0 {
			aug, err := check(fset, newImporter(fset, exports, ""), p, p.ImportPath,
				append(append([]string(nil), p.GoFiles...), p.TestGoFiles...), true, ov.Replace)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, aug)
		}
		if len(p.XTestGoFiles) > 0 {
			// External test files may use hooks that export_test.go
			// files add to the package under test, so imports of that
			// package must resolve to its test-augmented export data.
			xImp := newImporter(fset, exports, p.ImportPath)
			xt, err := check(fset, xImp, p, p.ImportPath+"_test", p.XTestGoFiles, true, ov.Replace)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, xt)
		}
	}
	return pkgs, nil
}

// isBasePackage filters the extra entries `go list -test` emits: the
// generated test binary main ("pkg.test") and the recompiled
// test-dependency variants ("pkg [other.test]"). Their export data is
// still consulted; only the base entry drives analysis.
func isBasePackage(p listedPackage) bool {
	return p.ForTest == "" &&
		!strings.HasSuffix(p.ImportPath, ".test") &&
		!strings.Contains(p.ImportPath, " [")
}

// newImporter builds an export-data importer. When augmentFor is
// non-empty, imports of that package resolve to its test-augmented
// variant ("path [path.test]") if one was compiled — the export data
// external test packages are built against.
func newImporter(fset *token.FileSet, exports map[string]string, augmentFor string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := "", false
		if path == augmentFor {
			file, ok = exports[fmt.Sprintf("%s [%s.test]", path, path)]
		}
		if !ok {
			file, ok = exports[path]
		}
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-test", "-export",
		"-json=ImportPath,Dir,GoFiles,TestGoFiles,XTestGoFiles,ForTest,Export,Standard,DepOnly,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var listed []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		listed = append(listed, p)
	}
	return listed, nil
}

func check(fset *token.FileSet, imp types.Importer, p listedPackage, importPath string, names []string, testScope bool, replace map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(p.Dir, name)
		file, err := parser.ParseFile(fset, cmp.Or(replace[path], path), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, file)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        p.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
		TestScope:  testScope,
	}, nil
}

// NewTypesInfo returns a types.Info with every map the analyzers
// consult populated. Shared with the linttest harness so fixtures are
// type-checked identically to real packages.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}
