package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestStandaloneExitStatus drives the standalone linter over two of
// internal/analysis's fixtures: the testonly one, whose unreferenced
// declarations must each come out as one finding line with exit status
// 1 (the allowed one stays silent), and a clean one, which must exit 0
// and print nothing.
func TestStandaloneExitStatus(t *testing.T) {
	fixtures := filepath.Join("..", "..", "internal", "analysis", "testdata")
	for _, tc := range []struct {
		fixture string
		status  int
		// want are the finding lines, each as its file:line:col and the
		// start of its message; every finding is testonly's.
		want []string
	}{
		{"testonly", 1, []string{
			"fixture.go:11:6: OnlyTested has no reference outside _test.go files",
			"fixture.go:13:7: TestedConst has no reference outside _test.go files",
			"fixture.go:16:6: Widget has no reference outside _test.go files",
			"fixture.go:18:18: Widget.Size has no reference outside _test.go files",
			"fixture.go:21:6: countdown has no reference outside _test.go files",
		}},
		{"clean", 0, nil},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			var out strings.Builder
			dir := filepath.Join(fixtures, tc.fixture)
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			if status := runStandalone([]string{"./" + filepath.ToSlash(dir)}, &out); status != tc.status {
				t.Errorf("exit status %d, want %d\n%s", status, tc.status, out.String())
			}
			var got []string
			if s := strings.TrimSpace(out.String()); s != "" {
				got = strings.Split(s, "\n")
			}
			if len(got) != len(tc.want) {
				t.Fatalf("%d finding lines, want %d:\n%s", len(got), len(tc.want), out.String())
			}
			for i, line := range got {
				if line = strings.TrimPrefix(line, abs+string(filepath.Separator)); !strings.HasPrefix(line, tc.want[i]) || !strings.HasSuffix(line, "[testonly]") {
					t.Errorf("finding %d = %q, want %q ... [testonly]", i, line, tc.want[i])
				}
			}
		})
	}
}
