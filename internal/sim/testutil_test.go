package sim

import "testing"

// runValidated validates cfg, then runs it on a fresh Arena: the
// error-returning harness boundary RunSweep applies to every cell.
func runValidated(cfg Config) (SkewReport, error) {
	if err := cfg.Validate(); err != nil {
		return SkewReport{}, err
	}
	return NewArena().Run(cfg), nil
}

// mustRun executes cfg via runValidated, failing the test on a
// validation error. Tests that exercise deliberately malformed configs
// call runValidated directly and assert on the error instead.
func mustRun(t testing.TB, cfg Config) SkewReport {
	t.Helper()
	rpt, err := runValidated(cfg)
	if err != nil {
		t.Fatalf("run %+v: %v", cfg, err)
	}
	return rpt
}

// mustSweep is mustRun's counterpart for RunSweep.
func mustSweep(t testing.TB, cells []SweepCell, workers int) []SweepResult {
	t.Helper()
	out, err := RunSweep(cells, workers)
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	return out
}
