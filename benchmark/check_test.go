package main

import (
	"math"
	"strings"
	"testing"

	"gcs/internal/sim"
)

// smokeWorkload returns the toy-size workload of that name.
func smokeWorkload(t *testing.T, name string) *workload {
	t.Helper()
	for _, w := range workloads(env{seed: 1, workers: 2, smoke: true, workdir: t.TempDir()}) {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

func TestCheckReport(t *testing.T) {
	clean := sim.Config{N: 8}
	faulted := sim.Config{N: 8, Faults: sim.FaultSpec{Drop: 0.1}}
	good := sim.SkewReport{EventsExecuted: 10, MaxGlobalSkew: 0.1, Bound: 1}
	good.Transport.Delivered = 5
	hit := good
	hit.Faults.Drops = 3

	edit := func(r sim.SkewReport, f func(*sim.SkewReport)) sim.SkewReport { f(&r); return r }
	for _, c := range []struct {
		name string
		cfg  sim.Config
		rpt  sim.SkewReport
		want string
	}{
		{"healthy", clean, good, ""},
		{"healthy under faults", faulted, hit, ""},
		{"faults may leave the bound", faulted, edit(hit, func(r *sim.SkewReport) { r.MaxGlobalSkew = 5 }), ""},
		{"idle", clean, edit(good, func(r *sim.SkewReport) { r.EventsExecuted = 0 }), "no events"},
		{"silent", clean, edit(good, func(r *sim.SkewReport) { r.Transport.Delivered = 0 }), "no messages"},
		{"skew past the bound", clean, edit(good, func(r *sim.SkewReport) { r.MaxGlobalSkew = 2 }), "exceeds bound"},
		{"NaN skew", clean, edit(good, func(r *sim.SkewReport) { r.MaxGlobalSkew = math.NaN() }), "exceeds bound"},
		{"plan injected nothing", faulted, good, "injected nothing"},
		{"never re-converged", faulted, edit(hit, func(r *sim.SkewReport) { r.ReconvergenceTime = math.Inf(1) }), "never re-converged"},
	} {
		if got := checkReport(c.cfg, c.rpt); (c.want == "") != (got == "") || !strings.Contains(got, c.want) {
			t.Errorf("%s: checkReport = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestChecksCatchAPerturbedReport is the negative control for the
// scenario checks: one field of one report changed by one unit must fail
// an operation and turn the exit code nonzero. A check that cannot fail
// would pass silently otherwise.
func TestChecksCatchAPerturbedReport(t *testing.T) {
	w := smokeWorkload(t, "ring1k_serial")
	ref := w.inst.rep(nil)
	var clean tally
	checkRep(&clean, "rep", w.cells, w.inst.rep(nil), ref)
	if clean.failed != 0 || clean.attempted != 1 || exitCode([]result{{Failed: clean.failed}}) != 0 {
		t.Fatalf("an honest rerun failed its checks: %+v", clean)
	}

	for name, perturb := range map[string]func(*sim.SkewReport){
		"one more jump":    func(r *sim.SkewReport) { r.TotalJumps++ },
		"one ulp of skew":  func(r *sim.SkewReport) { r.FinalGlobalSkew = math.Nextafter(r.FinalGlobalSkew, 1) },
		"one more message": func(r *sim.SkewReport) { r.Transport.Sent++ },
	} {
		got := w.inst.rep(nil)
		perturb(&got.reports[0])
		var tl tally
		checkRep(&tl, "rep", w.cells, got, ref)
		if tl.failed != 1 || tl.failFrac() <= 0 || len(tl.notes) == 0 {
			t.Errorf("%s: tally %+v, want one failed operation", name, tl)
		}
		if exitCode([]result{{Failed: tl.failed}}) == 0 {
			t.Errorf("%s: exit code 0 with a failed check", name)
		}
	}

	var tl tally
	checkRep(&tl, "rep", w.cells, repResult{}, ref)
	if tl.failed != 1 {
		t.Errorf("a rep without its result must fail: %+v", tl)
	}
}

// TestChecksCatchASwappedDaemonCell is the negative control for the
// daemon checks: two cells of the stored result set trade places. Every
// report is healthy on its own, so only the comparisons — against the
// reference rep and against sim.RunSweep — can notice.
func TestChecksCatchASwappedDaemonCell(t *testing.T) {
	w := smokeWorkload(t, "daemon_sweep")
	defer w.inst.close()
	ref := w.inst.rep(nil)
	if len(ref.errs) != 0 || len(ref.reports) != w.cells {
		t.Fatalf("daemon rep: %d reports for %d cells, errors %v", len(ref.reports), w.cells, ref.errs)
	}
	var clean tally
	w.inst.verify(ref, &clean)
	checkRep(&clean, "rep", w.cells, ref, ref)
	if clean.failed != 0 {
		t.Fatalf("the honest result set failed its checks: %+v", clean)
	}

	swapped := ref
	swapped.reports = append([]sim.SkewReport(nil), ref.reports...)
	swapped.reports[0], swapped.reports[1] = swapped.reports[1], swapped.reports[0]
	var vsSweep, vsRef tally
	w.inst.verify(swapped, &vsSweep)
	checkRep(&vsRef, "rep", w.cells, swapped, ref)
	if vsSweep.failed != 1 || vsSweep.failFrac() <= 0 {
		t.Errorf("RunSweep comparison missed the swap: %+v", vsSweep)
	}
	if vsRef.failed != 2 {
		t.Errorf("reference comparison should fail exactly the two swapped cells: %+v", vsRef)
	}
	if exitCode([]result{{Failed: vsSweep.failed}, {}}) == 0 {
		t.Error("exit code 0 with a swapped cell")
	}

	// The read path's check: a resumed daemon that re-executed a cell, or
	// lost a job, is not serving the store.
	if errs := checkResumed(w.inst.(*daemonLoad).last.dm.Jobs(), 2, w.cells); len(errs) != 0 {
		t.Errorf("honest resume: %v", errs)
	}
	jobs := w.inst.(*daemonLoad).last.dm.Jobs()
	jobs[0].Cached--
	if errs := checkResumed(jobs, 2, w.cells); len(errs) != 2 {
		t.Errorf("a re-executed cell should fail its job and the total, got %v", errs)
	}
	if errs := checkResumed(jobs[1:], 2, w.cells); len(errs) == 0 {
		t.Error("a lost job passed the resume check")
	}
}
