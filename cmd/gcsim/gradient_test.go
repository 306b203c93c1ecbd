package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update regenerates testdata/gradient from the current code instead of
// diffing against it. The committed files are regenerable, never
// hand-edited: CI reruns `-update` and fails on any git diff.
var update = flag.Bool("update", false, "rewrite testdata/gradient from the current code")

// TestGradientGolden pins `gcsim gradient`'s stdout and both artifacts
// byte for byte across commits. The command prints no elapsed time, so
// the only run-specific text is the -out directory in its "wrote" line,
// which is spelled OUT in the golden.
func TestGradientGolden(t *testing.T) {
	out := t.TempDir()
	cmd := exec.Command(os.Args[0], "gcsim", "gradient",
		"-n", "16", "-horizon", "4", "-workers", "2", "-out", out)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("gcsim gradient: %v\n%s", err, stderr.String())
	}
	got := map[string][]byte{"stdout.txt": bytes.ReplaceAll(stdout, []byte(out), []byte("OUT"))}
	artifacts := []string{"gradient_skew.csv", "gradient_report.json"}
	for _, name := range artifacts {
		if got[name], err = os.ReadFile(filepath.Join(out, name)); err != nil {
			t.Fatal(err)
		}
	}

	dir := filepath.Join("testdata", "gradient")
	for _, name := range append([]string{"stdout.txt"}, artifacts...) {
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
			t.Fatalf("%v (regenerate with: go test ./cmd/gcsim -run TestGradientGolden -update)", err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: output differs from the committed golden at line %d", path, firstDiffLine(got[name], want))
		}
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
