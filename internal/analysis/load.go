package analysis

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

// Offline package loading. The module has no dependency on
// golang.org/x/tools/go/packages, so the standalone gcslint driver and
// the fixture runner load packages the way cmd/go itself does: `go list
// -deps -export -json` yields, for every package in the transitive
// closure, the source file list and a build-cache path to compiled
// export data; importer.ForCompiler("gc") then resolves imports from
// those files while we parse and type-check the target packages from
// source (the standalone driver checks module imports from source too;
// see lint). No network, no GOPATH pkg dirs — just the build cache the
// toolchain already maintains.

// ListedPackage is the subset of cmd/go's -json output the loader needs.
type ListedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Error      *struct{ Err string }
}

// GoList runs `go list -deps -export -json patterns...` in dir and
// returns every listed package in listing order: dependencies before
// their dependents, roots (DepOnly false) among them.
func GoList(dir string, patterns ...string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(out)
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	return pkgs, nil
}

// exportFiles maps each listed package's import path to its export data.
func exportFiles(pkgs []*ListedPackage) map[string]string {
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports
}

// ExportImporter returns a types.Importer that resolves import paths
// via the given map of import path -> export data file (as produced by
// GoList).
func ExportImporter(fset *token.FileSet, exportFiles map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := exportFiles[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// ParseAndCheck parses the named files (ParseComments on — the
// directives live in comments) and type-checks them as package
// importPath, resolving imports through imp. Returns the syntax, the
// package, and a fully populated types.Info.
func ParseAndCheck(fset *token.FileSet, imp types.Importer, importPath string, filenames []string) ([]*ast.File, *types.Package, *types.Info, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	var firstErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	pkg, _ := conf.Check(importPath, fset, files, info)
	if firstErr != nil {
		return files, pkg, info, fmt.Errorf("type-checking %s: %v", importPath, firstErr)
	}
	return files, pkg, info, nil
}

// LintPackages is the standalone driver: it loads the packages matching
// patterns (relative to dir), runs the suite on every in-module root,
// module rules included, and returns the surfaced diagnostics.
func LintPackages(dir string, patterns ...string) ([]Diagnostic, error) {
	diags, err := lint(dir, Analyzers, patterns...)
	return surfaced(diags), err
}

// lint type-checks every in-module package the patterns reach from
// source, dependencies first, so a module import resolves to the
// package already checked and a module rule sees one object per
// declaration; only the standard library comes from export data. It
// runs the per-package analyzers on each root, then the module
// analyzers over all roots, and keeps suppressed findings.
func lint(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := GoList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std := ExportImporter(fset, exportFiles(pkgs))
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if pkg := checked[path]; pkg != nil {
			return pkg, nil
		}
		return std.Import(path)
	})
	var diags []Diagnostic
	modulePasses := map[*Analyzer][]*Pass{}
	for _, p := range pkgs {
		if p.Standard || len(p.GoFiles) == 0 || p.Error != nil {
			continue
		}
		var filenames []string
		for _, g := range p.GoFiles {
			filenames = append(filenames, filepath.Join(p.Dir, g))
		}
		files, pkg, info, err := ParseAndCheck(fset, imp, p.ImportPath, filenames)
		if err != nil {
			return diags, err
		}
		checked[p.ImportPath] = pkg
		if p.DepOnly {
			continue
		}
		runPackage(analyzers, fset, files, pkg, info, &diags)
		for _, a := range analyzers {
			if a.RunModule != nil && appliesTo(a, p.ImportPath) {
				modulePasses[a] = append(modulePasses[a], newPass(a, fset, files, pkg, info, &diags))
			}
		}
	}
	for _, a := range analyzers {
		if passes := modulePasses[a]; len(passes) > 0 {
			checkRun(&diags, a, a.RunModule(passes))
		}
	}
	sortDiagnostics(diags)
	return diags, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
