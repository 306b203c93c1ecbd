package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// Nondeterminism forbids wall-clock reads and seedless PRNGs in the
// deterministic packages. The repository's headline guarantee — the
// same Config produces bit-identical SkewReports across reruns and
// worker counts — holds only because every quantity in an execution is
// a function of the scenario seed; one time.Now() in a delay law or one
// math/rand draw in a churn schedule silently voids it, and the golden
// suites only catch the breakage for the configs they happen to pin.
//
//   - Calls to time.Now, time.Since, time.Until are flagged (these read
//     the wall clock; time.Duration arithmetic, timers, and
//     time.AfterFunc are fine — under synctest they are deterministic).
//   - Importing math/rand or math/rand/v2 is flagged at the import:
//     des.Rand is the only sanctioned randomness (splittable, seeded,
//     stable across Go releases).
//
// internal/rt's two by-design wall reads carry //gcslint:allow
// nondeterminism annotations; see config.go for why rt is in scope.
var Nondeterminism = &Analyzer{
	Name: "nondeterminism",
	Doc:  "forbid wall-clock reads (time.Now/Since/Until) and math/rand in deterministic packages",
	Run:  runNondeterminism,
}

var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

func runNondeterminism(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "deterministic package imports %s (use des.Rand: seeded, splittable, release-stable)", path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "deterministic package reads the wall clock via time.%s (derive times from the DES engine or seam.Clock)", fn.Name())
			}
			return true
		})
	}
	return nil
}
