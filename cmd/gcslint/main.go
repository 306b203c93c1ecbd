// gcslint is the repository's static-analysis suite (internal/analysis)
// packaged as both a standalone linter and a `go vet` tool.
//
// Standalone:
//
//	gcslint ./...              # lint packages, exit 1 on findings
//
// Only the standalone driver runs the module rules (testonly), which
// need every package at once: run it over `./...`, since a narrower
// pattern misses the references other packages make.
//
// As a vettool (shares vet's build cache and per-package work units;
// runs the per-package rules only):
//
//	go build -o gcslint ./cmd/gcslint
//	go vet -vettool=$PWD/gcslint ./...
//
// In vettool mode cmd/go drives the unitchecker protocol: the tool is
// probed with -V=full (a version line keyed to the binary's hash, so
// vet's cache invalidates when the tool changes) and -flags (the JSON
// list of analyzer flags; gcslint has none), then invoked once per
// package unit with the path to a vet.cfg describing the files, the
// import map, and the export data for every dependency. Units for
// dependency packages arrive with VetxOnly set and are acknowledged
// without analysis.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gcs/internal/analysis"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]") // no analyzer flags
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(runUnit(args[0]))
	}
	os.Exit(runStandalone(args))
}

// printVersion implements -V=full: cmd/go embeds the line in its action
// IDs, so it must change whenever the tool binary changes — hash
// ourselves.
func printVersion() {
	name := filepath.Base(os.Args[0])
	name = strings.TrimSuffix(name, ".exe")
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%02x\n", name, h.Sum(nil))
}

// vetConfig is the part of the unit description cmd/go writes for each
// package that gcslint reads.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcslint: %v\n", err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "gcslint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	// Acknowledge the unit so vet's fact-caching machinery always finds
	// its output file; gcslint keeps no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "gcslint: %v\n", err)
			return 2
		}
	}
	if cfg.VetxOnly || len(cfg.GoFiles) == 0 {
		return 0
	}
	fset := token.NewFileSet()
	imp := analysis.ExportImporter(fset, cfg.ImportMap, cfg.PackageFile)
	files, pkg, info, err := analysis.ParseAndCheck(fset, imp, cfg.ImportPath, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "gcslint: %v\n", err)
		return 2
	}
	diags := analysis.RunAnalyzers(fset, files, pkg, info)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func runStandalone(patterns []string) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.LintPackages(".", patterns...)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcslint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
