package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update regenerates testdata/<row> from the current code instead of
// diffing against it. The committed files are regenerable, never
// hand-edited: CI reruns `-update` and fails on any git diff.
var update = flag.Bool("update", false, "rewrite testdata/<row> from the current code")

// A cliRow is one TestCLIGolden row: a subcommand's arguments and the
// artifacts it writes under -out; testdata/<name> holds its files.
type cliRow struct {
	name      string
	args      []string
	artifacts []string
}

var cliRows = []cliRow{
	{"gradient", []string{"gradient", "-n", "16", "-horizon", "4", "-workers", "2"},
		[]string{"gradient_skew.csv", "gradient_report.json"}},
	{"lowerbound", []string{"lowerbound", "-n", "16,32", "-workers", "2"},
		[]string{"lowerbound_skew.csv", "lowerbound_report.json"}},
	{"sweep", []string{"sweep", "-n", "16,32", "-topos", "ring", "-drivers", "randomwalk", "-horizon", "4", "-workers", "2"},
		[]string{"sweep_results.csv", "sweep_report.json"}},
	{"chaos", []string{"chaos", "-n", "16", "-horizon", "8", "-workers", "2"},
		[]string{"chaos_grid.csv", "chaos_report.json"}},
	{"scenario-rotatingstar", []string{"-n", "16", "-horizon", "5", "-churn", "rotatingstar", "-events"}, nil},
	{"scenario-faulted-grid", []string{"-n", "36", "-topo", "grid", "-churn", "volatile", "-horizon", "8",
		"-fault-crash-every", "3", "-fault-drop", "0.1", "-events"}, nil},
	{"scenario-grid-n24", []string{"-n", "24", "-topo", "grid", "-horizon", "4"}, nil},
	{"scenario-parallel", []string{"-n", "64", "-horizon", "4", "-parallel", "-shards", "4", "-workers", "2"}, nil},
	{"scenario-parallel-events", []string{"-n", "64", "-horizon", "4", "-parallel", "-shards", "4", "-workers", "2", "-events"}, nil},
}

// TestCLIGolden pins the stdout and -out artifacts of the subcommands,
// byte for byte across commits (the grid subcommands print their elapsed
// time to stderr, which is not pinned). Each row re-execs
// the test binary as `gcsim <args>`, plus `-out <tmp>` for a row with
// artifacts; the only run-specific text is the -out directory in the
// "wrote" line, which is spelled OUT in the golden. The scenario rows
// have no artifacts; with -events their stdout carries the per-label
// event counts summed over every engine of the run.
func TestCLIGolden(t *testing.T) {
	for _, row := range cliRows {
		t.Run(row.name, func(t *testing.T) {
			out := t.TempDir()
			args := append([]string{"gcsim"}, row.args...)
			if len(row.artifacts) > 0 {
				args = append(args, "-out", out)
			}
			cmd := exec.Command(os.Args[0], args...)
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			stdout, err := cmd.Output()
			if err != nil {
				t.Fatalf("gcsim %v: %v\n%s", row.args, err, stderr.String())
			}
			got := map[string][]byte{"stdout.txt": bytes.ReplaceAll(stdout, []byte(out), []byte("OUT"))}
			for _, name := range row.artifacts {
				if got[name], err = os.ReadFile(filepath.Join(out, name)); err != nil {
					t.Fatal(err)
				}
			}

			dir := filepath.Join("testdata", row.name)
			for _, name := range append([]string{"stdout.txt"}, row.artifacts...) {
				path := filepath.Join(dir, name)
				if *update {
					if err := os.MkdirAll(dir, 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(path, got[name], 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with: go test ./cmd/gcsim -run TestCLIGolden -update)", err)
				}
				if !bytes.Equal(got[name], want) {
					t.Errorf("%s: output differs from the committed golden at line %d", path, firstDiffLine(got[name], want))
				}
			}
		})
	}
}

// firstDiffLine returns the 1-based number of the first line at which a
// and b differ.
func firstDiffLine(a, b []byte) int {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := range min(len(la), len(lb)) {
		if !bytes.Equal(la[i], lb[i]) {
			return i + 1
		}
	}
	return min(len(la), len(lb)) + 1
}
