package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"gcs/internal/sim"
	"gcs/internal/simtest"
)

// tally counts operations against failures. An operation is a cell of a
// rep or one of the once-per-invocation checks; any failed check fails
// it, and a refused submit or a store error counts as one too. The
// design's fail_frac is failed/attempted; the process exits nonzero
// when it is above 0.
type tally struct {
	attempted int
	failed    int
	notes     []string // the first few failures, for the output
}

// op records one operation; it failed if any of errs is nonempty.
func (t *tally) op(errs ...string) {
	t.attempted++
	failed := false
	for _, e := range errs {
		if e == "" {
			continue
		}
		failed = true
		if len(t.notes) < 20 {
			t.notes = append(t.notes, e)
		}
	}
	if failed {
		t.failed++
	}
}

func (t *tally) failFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// checkReport is the per-result correctness check: the run did
// something, and it ended where the paper says it must — inside the
// analytic global-skew bound when nothing was injected, re-converged
// after the last fault when something was.
func checkReport(cfg sim.Config, r sim.SkewReport) string {
	switch {
	case r.EventsExecuted == 0:
		return "no events executed"
	case r.Transport.Delivered == 0:
		return "no messages delivered"
	case !cfg.Faults.Enabled():
		if !(r.MaxGlobalSkew <= r.Bound) {
			return fmt.Sprintf("max global skew %v exceeds bound %v", r.MaxGlobalSkew, r.Bound)
		}
	default:
		if r.Faults.Total() == 0 {
			return "fault plan injected nothing"
		}
		if math.IsInf(r.ReconvergenceTime, 0) || math.IsNaN(r.ReconvergenceTime) {
			return "never re-converged after the last fault"
		}
	}
	return ""
}

// checkRep tallies one rep: one operation per expected cell, failed by
// its own check, by differing from the reference rep (reports must
// repeat bit for bit), or by being absent; rep-level errors are
// operations of their own.
func checkRep(t *tally, label string, want int, got, ref repResult) {
	for i := 0; i < want; i++ {
		if i >= len(got.reports) {
			t.op(fmt.Sprintf("%s: result %d missing", label, i))
			continue
		}
		errs := []string{checkReport(got.cfgs[i], got.reports[i])}
		if i < len(ref.reports) {
			errs = append(errs, diffReports(fmt.Sprintf("%s result %d vs reference rep", label, i),
				got.reports[i:i+1], ref.reports[i:i+1])...)
		}
		for j := range errs {
			if errs[j] != "" {
				errs[j] = label + ": " + errs[j]
			}
		}
		t.op(errs...)
	}
	for _, e := range got.errs {
		t.op(label + ": " + e)
	}
}

// diffReports compares two result sets position by position and returns
// one line per differing field.
func diffReports(label string, got, want []sim.SkewReport) []string {
	if len(got) != len(want) {
		return []string{fmt.Sprintf("%s: %d results, want %d", label, len(got), len(want))}
	}
	var out []string
	for i := range got {
		for _, d := range simtest.Diff(got[i], want[i]) {
			out = append(out, fmt.Sprintf("%s: result %d: %s", label, i, d))
		}
	}
	return out
}

// counts are the simulated quantities of one rep. They are exact and
// must repeat bit for bit, so a physics change between two commits is
// visible in the output rather than silent.
type counts struct {
	Events             uint64 `json:"events"`
	Delivered          uint64 `json:"delivered"`
	EdgeAdds           uint64 `json:"edge_adds"`
	DistanceRecomputes uint64 `json:"distance_recomputes"`
	ReportDigest       string `json:"report_digest"`
}

func countsOf(reports []sim.SkewReport) counts {
	var c counts
	h := sha256.New()
	for _, r := range reports {
		c.Events += r.EventsExecuted
		c.Delivered += r.Transport.Delivered
		c.EdgeAdds += uint64(r.EdgeAdds)
		c.DistanceRecomputes += uint64(r.DistanceRecomputes)
		// %v prints a float64 with the fewest digits that round-trip, so
		// the text is as exact as the bits.
		fmt.Fprintf(h, "%+v\n", r)
	}
	c.ReportDigest = hex.EncodeToString(h.Sum(nil)[:8])
	return c
}
