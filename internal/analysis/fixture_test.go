package analysis

// The fixture runner: an analysistest-shaped harness on stdlib only.
// Each rule has a directory under testdata/ holding one fixture package
// (positive cases, negative cases, and the //gcslint:allow escape
// hatch). Expectations ride in the fixture source:
//
//	expr // want "regexp matched against the diagnostic message"
//	expr // want:allowed "regexp" — a finding that MUST be produced
//	     // but suppressed by a gcslint:allow directive on the line
//
// Every surfaced diagnostic must match a `want` on its exact line, and
// every `want` must be hit — so the test fails both on false positives
// and, crucially, if the rule is disabled or stops firing.
//
// Fixtures are type-checked under a real in-scope import path (e.g. the
// lockorder fixture as gcs/internal/rt) against genuine export data
// from the build cache, so types resolve exactly as in a real build.

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

var fixtureEnv struct {
	once    sync.Once
	exports map[string]string
	err     error
}

// fixtureExports loads export data for the module and the stdlib
// packages fixtures import, once per test binary.
func fixtureExports(t *testing.T) map[string]string {
	t.Helper()
	fixtureEnv.once.Do(func() {
		pkgs, err := GoList(".", "gcs/...", "time", "math/rand", "sync", "fmt", "sort", "strings")
		fixtureEnv.exports, fixtureEnv.err = exportFiles(pkgs), err
	})
	if fixtureEnv.err != nil {
		t.Fatalf("loading export data: %v", fixtureEnv.err)
	}
	return fixtureEnv.exports
}

var (
	wantRe        = regexp.MustCompile(`// want "((?:[^"\\]|\\.)*)"`)
	wantAllowedRe = regexp.MustCompile(`want:allowed "((?:[^"\\]|\\.)*)"`)
)

type expectation struct {
	re  *regexp.Regexp
	hit bool
}

// runFixture type-checks testdata/<dir> as package asImportPath, runs
// the single analyzer, and diffs its diagnostics against the want
// comments embedded in the fixture source.
func runFixture(t *testing.T, a *Analyzer, dir, asImportPath string) {
	t.Helper()
	exports := fixtureExports(t)

	fixDir := filepath.Join("testdata", dir)
	entries, err := os.ReadDir(fixDir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var filenames []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".go" {
			filenames = append(filenames, filepath.Join(fixDir, e.Name()))
		}
	}
	if len(filenames) == 0 {
		t.Fatalf("no fixture files in %s", fixDir)
	}
	sort.Strings(filenames)

	fset := token.NewFileSet()
	imp := ExportImporter(fset, exports)
	files, pkg, info, err := ParseAndCheck(fset, imp, asImportPath, filenames)
	if err != nil {
		t.Fatalf("fixture does not type-check: %v", err)
	}

	// Collect expectations, keyed file:line.
	wants := map[string][]*expectation{}
	wantsAllowed := map[string][]*expectation{}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				pos := fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					wants[key] = append(wants[key], &expectation{re: regexp.MustCompile(m[1])})
				}
				for _, m := range wantAllowedRe.FindAllStringSubmatch(c.Text, -1) {
					wantsAllowed[key] = append(wantsAllowed[key], &expectation{re: regexp.MustCompile(m[1])})
				}
			}
		}
	}

	var diags []Diagnostic
	pass := newPass(a, fset, files, pkg, info, &diags)
	run := a.Run
	if a.RunModule != nil {
		run = func(p *Pass) error { return a.RunModule([]*Pass{p}) }
	}
	if err := run(pass); err != nil {
		t.Fatalf("analyzer %s: %v", a.Name, err)
	}

	match := func(table map[string][]*expectation, d Diagnostic) bool {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		for _, exp := range table[key] {
			if !exp.hit && exp.re.MatchString(d.Message) {
				exp.hit = true
				return true
			}
		}
		return false
	}
	for _, d := range diags {
		if d.Surfaced {
			if !match(wants, d) {
				t.Errorf("unexpected diagnostic: %s", d)
			}
		} else {
			if !match(wantsAllowed, d) {
				t.Errorf("unexpected suppressed diagnostic: %s", d)
			}
		}
	}
	report := func(table map[string][]*expectation, kind string) {
		for key, exps := range table {
			for _, exp := range exps {
				if !exp.hit {
					t.Errorf("missing %s diagnostic at %s matching %q (is the rule disabled?)", kind, key, exp.re)
				}
			}
		}
	}
	report(wants, "surfaced")
	report(wantsAllowed, "suppressed")
}

func TestNondeterminismFixture(t *testing.T) {
	runFixture(t, Nondeterminism, "nondeterminism", "gcs/internal/sim")
}

func TestSeampurityFixture(t *testing.T) {
	runFixture(t, Seampurity, "seampurity", "gcs/internal/gcs")
}

func TestLockorderFixture(t *testing.T) {
	runFixture(t, Lockorder, "lockorder", "gcs/internal/rt")
}

func TestZeroallocFixture(t *testing.T) {
	runFixture(t, Zeroalloc, "zeroalloc", "gcs/internal/des")
}

func TestMaprangeFixture(t *testing.T) {
	runFixture(t, Maprange, "maprange", "gcs/internal/dyngraph")
}

func TestTestonlyFixture(t *testing.T) {
	runFixture(t, Testonly, "testonly", "gcs/internal/fixture")
}

// TestModuleIsLintClean runs every rule over the whole module, as
// `gcslint ./...` does, so a finding — a wall-clock read in a
// deterministic package, an unsorted map range, test-only production
// code — fails the ordinary test run and not only the lint job. Every
// allow must state its reason.
func TestModuleIsLintClean(t *testing.T) {
	diags, err := lint(".", Analyzers, "gcs/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Surfaced {
			t.Errorf("%s", d)
			continue
		}
		data, err := os.ReadFile(d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		// The directive sits on the flagged line or the one above.
		lines := strings.Split(string(data), "\n")
		reason := regexp.MustCompile(`//gcslint:allow ` + d.Rule + ` — \S`)
		if !reason.MatchString(strings.Join(lines[max(d.Pos.Line-2, 0):d.Pos.Line], "\n")) {
			t.Errorf("%s: allowed without a reason (want //gcslint:allow %s — <reason>)", d.Pos, d.Rule)
		}
	}
}

// TestRegistryAndPolicy pins the suite's composition and the package
// policy: dropping a rule from the registry, or a package from a rule's
// scope, must be a deliberate diff here.
func TestRegistryAndPolicy(t *testing.T) {
	want := []string{"nondeterminism", "seampurity", "lockorder", "zeroalloc", "maprange", "testonly"}
	if len(Analyzers) != len(want) {
		t.Fatalf("registry has %d analyzers, want %d", len(Analyzers), len(want))
	}
	for i, a := range Analyzers {
		if a.Name != want[i] {
			t.Errorf("Analyzers[%d] = %s, want %s", i, a.Name, want[i])
		}
		if a.Doc == "" || (a.Run == nil) == (a.RunModule == nil) {
			t.Errorf("analyzer %s needs a Doc and exactly one of Run and RunModule", a.Name)
		}
	}
	cases := []struct {
		rule, pkg string
		want      bool
	}{
		{"nondeterminism", "gcs/internal/des", true},
		{"nondeterminism", "gcs/internal/rt", true}, // rt is in scope; its wall reads are per-site allows
		{"nondeterminism", "gcs/cmd/gcsim", false},
		{"maprange", "gcs/cmd/gcsim", true},
		{"maprange", "gcs/internal/dyngraph [gcs/internal/dyngraph.test]", true},
		{"seampurity", "gcs/internal/gcs", true},
		{"seampurity", "gcs/internal/sim", false},
		{"lockorder", "gcs/internal/rt", true},
		{"lockorder", "gcs/internal/des", false},
		{"zeroalloc", "gcs/internal/transport", true},
		{"zeroalloc", "fmt", false},
		{"testonly", "gcs/benchmark", true},
		{"testonly", "gcs/cmd/gcsim", true},
		{"testonly", "fmt", false},
	}
	for _, c := range cases {
		a := analyzerByName(t, c.rule)
		if got := appliesTo(a, c.pkg); got != c.want {
			t.Errorf("appliesTo(%s, %s) = %v, want %v", c.rule, c.pkg, got, c.want)
		}
	}
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer %q", name)
	return nil
}
