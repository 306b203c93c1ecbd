// gcslint is the repository's static-analysis suite (internal/analysis)
// as a standalone linter:
//
//	gcslint ./...              # lint packages, exit 1 on findings
//
// It runs every rule, the module rule testonly included, which needs
// every package at once: run it over `./...`, since a narrower pattern
// misses the references other packages make.
package main

import (
	"fmt"
	"io"
	"os"

	"gcs/internal/analysis"
)

func main() {
	os.Exit(runStandalone(os.Args[1:], os.Stderr))
}

// runStandalone lints the packages patterns name, writing one line per
// finding to stderr, and returns the exit status: 0 clean, 1 findings,
// 2 a load or type error.
func runStandalone(patterns []string, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := analysis.LintPackages(".", patterns...)
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if err != nil {
		fmt.Fprintf(stderr, "gcslint: %v\n", err)
		return 2
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
