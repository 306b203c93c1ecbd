package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for gcsim: invoked as
// `<test binary> gcsim <args>` it runs main on <args> and exits, so a
// test can observe the command's exit code and stderr. `go test` never
// passes a bare "gcsim" as the first argument.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "gcsim" {
		os.Args = os.Args[1:]
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsUnknownArguments: a misspelt or retired subcommand, or a
// stray positional argument after any subcommand's flags, fails with a
// message naming it instead of running the default scenario.
func TestRejectsUnknownArguments(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		stray string
	}{
		{[]string{"bench"}, "bench"},
		{[]string{"lowerbnd", "-n", "8"}, "lowerbnd"},
		{[]string{"-n", "8", "extra"}, "extra"},
		{[]string{"lowerbound", "-n", "8", "extra"}, "extra"},
		{[]string{"gradient", "extra"}, "extra"},
		{[]string{"sweep", "extra"}, "extra"},
		{[]string{"chaos", "extra"}, "extra"},
		{[]string{"realtime", "extra"}, "extra"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			cmd := exec.Command(os.Args[0], append([]string{"gcsim"}, tc.args...)...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() == 0 {
				t.Fatalf("gcsim %v: err %v, want a nonzero exit", tc.args, err)
			}
			want := `gcsim: unknown subcommand or argument "` + tc.stray + `"`
			if !strings.Contains(stderr.String(), want) {
				t.Fatalf("gcsim %v: stderr %q, want it to contain %q", tc.args, stderr.String(), want)
			}
		})
	}
}

// TestLowerBoundRejectsBadEps: an adversary the model does not allow is
// a Config.Validate error (exit 1, a sim: message), never a panic.
func TestLowerBoundRejectsBadEps(t *testing.T) {
	cmd := exec.Command(os.Args[0], "gcsim", "lowerbound", "-n", "8", "-eps", "0.5", "-out", t.TempDir())
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("err %v, want exit status 1; stderr %q", err, stderr.String())
	}
	if msg := stderr.String(); !strings.Contains(msg, "sim:") || strings.Contains(msg, "panic") {
		t.Fatalf("stderr %q, want a sim: validation message and no panic", msg)
	}
}
