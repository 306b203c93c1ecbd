// Package analysis is gcslint's analyzer suite: a small, stdlib-only
// reimplementation of the go/analysis Analyzer/Pass shape (the module
// has no external dependencies, so golang.org/x/tools is off the table)
// hosting the six rules that machine-enforce this repository's
// headline invariants:
//
//   - nondeterminism: no wall-clock reads (time.Now/Since/Until) and no
//     math/rand in the deterministic packages — the bit-identical-
//     reports guarantee, as a compile-time contract.
//   - seampurity: internal/gcs imports nothing but internal/seam and
//     non-temporal stdlib — the PR 8 seam, machine-enforced.
//   - lockorder: the real-time runtime's documented host→router lock
//     order, flagged when a function acquires a host lock while holding
//     the router lock.
//   - zeroalloc: functions annotated //gcslint:zeroalloc must not
//     contain capturing closures, interface boxing of concrete values,
//     appends onto function-local slices, or string concatenation —
//     the O(1)-allocation hot-path contract.
//   - maprange: a `for range` over a map in a deterministic package
//     must sort what it collects before anything downstream can observe
//     the iteration order.
//   - testonly: every package-level declaration and method in a
//     non-test file has a non-test reference in the module, so no
//     production API survives only because tests call it.
//
// Suppression is explicit and auditable: a `//gcslint:allow <rule> —
// reason` comment on the flagged line (or the line above) silences one
// site; the package-level policy — which rules run on which packages —
// lives in config.go next to the analyzers. There is no blanket opt
// out.
//
// The suite runs two ways: `gcslint ./...` over the module (every
// rule; TestModuleIsLintClean does the same in the ordinary test run),
// and per-rule fixture tests (fixture_test.go) that fail if a rule
// stops firing.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named rule. Run inspects a type-checked package via
// the Pass and reports findings through it. A module rule sets
// RunModule instead and sees every linted package at once.
type Analyzer struct {
	Name      string
	Doc       string
	Run       func(*Pass) error
	RunModule func([]*Pass) error
}

// Diagnostic is one finding, positioned and attributed to its rule.
type Diagnostic struct {
	Pos      token.Position
	Rule     string
	Message  string
	Surfaced bool // false when an //gcslint:allow directive suppressed it
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// allows maps file:line to the rule names allowed there (populated
	// from //gcslint:allow directives by newPass).
	allows map[string]map[string]bool
	diags  *[]Diagnostic
}

var allowRe = regexp.MustCompile(`gcslint:allow\s+([a-z]+)`)

// newPass builds a Pass over an already type-checked package, indexing
// its //gcslint:allow directives. diags collects across analyzers.
func newPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, diags *[]Diagnostic) *Pass {
	p := &Pass{
		Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info,
		allows: map[string]map[string]bool{},
		diags:  diags,
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range allowRe.FindAllStringSubmatch(c.Text, -1) {
					pos := fset.Position(c.Pos())
					// The directive covers its own line and the next one, so
					// it works both trailing a statement and on the line above.
					for _, line := range []int{pos.Line, pos.Line + 1} {
						key := fmt.Sprintf("%s:%d", pos.Filename, line)
						if p.allows[key] == nil {
							p.allows[key] = map[string]bool{}
						}
						p.allows[key][m[1]] = true
					}
				}
			}
		}
	}
	return p
}

// Reportf records one finding at pos. Findings inside _test.go files
// are dropped (the determinism contracts bind production code; tests
// routinely range maps and read wall clocks on purpose), and findings
// whose line carries a matching //gcslint:allow directive are kept but
// marked suppressed, so drivers can audit what the allowlist is hiding.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	where := p.Fset.Position(pos)
	if strings.HasSuffix(where.Filename, "_test.go") {
		return
	}
	d := Diagnostic{
		Pos:      where,
		Rule:     p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
		Surfaced: true,
	}
	if rules := p.allows[fmt.Sprintf("%s:%d", where.Filename, where.Line)]; rules[p.Analyzer.Name] {
		d.Surfaced = false
	}
	*p.diags = append(*p.diags, d)
}

// runPackage runs the per-package analyzers among as that apply to pkg.
func runPackage(as []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, diags *[]Diagnostic) {
	for _, a := range as {
		if a.Run == nil || !appliesTo(a, pkg.Path()) {
			continue
		}
		checkRun(diags, a, a.Run(newPass(a, fset, files, pkg, info, diags)))
	}
}

func surfaced(all []Diagnostic) []Diagnostic {
	out := all[:0]
	for _, d := range all {
		if d.Surfaced {
			out = append(out, d)
		}
	}
	return out
}

// checkRun records an analyzer's own failure as a surfaced finding.
func checkRun(diags *[]Diagnostic, a *Analyzer, err error) {
	if err != nil {
		*diags = append(*diags, Diagnostic{
			Rule:     a.Name,
			Message:  fmt.Sprintf("analyzer error: %v", err),
			Surfaced: true,
		})
	}
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
