package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of -compare, per workload and end-to-end metric.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// verdict judges b against a for one metric. The medians decide, by the
// metric's bound — unless the runs' own spread (the wider interquartile
// distance of the two, as a share of its median) exceeds that bound and
// the two ranges overlap: then the difference cannot be told from noise
// and the metric is unresolved, not unchanged. Ranges that do not overlap
// resolve it whatever the spread: every run of one side beat every run
// of the other.
func verdict(d metricDef, a, b summary) string {
	worse := (b.Median - a.Median) / a.Median // share of a's median by which b is worse
	if d.Better == "higher" {
		worse = -worse
	}
	overlap := a.Min <= b.Max && b.Min <= a.Max
	if max(a.spread(), b.spread()) > d.Bound && overlap {
		return unresolved
	}
	switch {
	case worse > d.Bound:
		return regressed
	case worse < -d.Bound:
		return improved
	}
	return unchanged
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// the two files share, checks that the simulated counts agree exactly
// when both ran the same seed, and returns a nonzero exit code on any
// regression or count mismatch.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readResults(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := readResults(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	return compareResults(w, a, b)
}

func compareResults(w io.Writer, a, b resultFile) int {
	code := 0
	sameInputs := a.Header.Seed == b.Header.Seed && a.Header.Smoke == b.Header.Smoke
	byName := map[string]result{}
	for _, r := range b.Results {
		byName[r.Workload] = r
	}
	for _, ra := range a.Results {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		for _, d := range endToEnd {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			sa, sb := summaryOf(va), summaryOf(vb)
			v := verdict(d, sa, sb)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-17s %-14s %-10s %12.6g -> %-12.6g %+6.1f%%  bound %2.0f%%  spread %.1f%% / %.1f%%\n",
				ra.Workload, d.Name, v, sa.Median, sb.Median, 100*(sb.Median-sa.Median)/sa.Median,
				100*d.Bound, 100*sa.spread(), 100*sb.spread())
		}
		if rb.Failed > ra.Failed {
			code = 1
			fmt.Fprintf(w, "%-17s %-14s %-10s %d -> %d failed operations\n", ra.Workload, "fail_frac", regressed, ra.Failed, rb.Failed)
		}
		if !sameInputs {
			fmt.Fprintf(w, "%-17s counts         skipped    (different seed or size)\n", ra.Workload)
			continue
		}
		if ra.Counts != rb.Counts {
			code = 1
			fmt.Fprintf(w, "%-17s counts         DIFFER     %+v -> %+v\n", ra.Workload, ra.Counts, rb.Counts)
		} else {
			fmt.Fprintf(w, "%-17s counts         equal      digest %s\n", ra.Workload, ra.Counts.ReportDigest)
		}
		// The per-layer counts of a traced run must repeat exactly too.
		for _, d := range perLayer {
			va, okA := ra.Metrics[d.Name]
			vb, okB := rb.Metrics[d.Name]
			if d.Unit == "count" && okA && okB && d.Name != "sim.allocs_per_run" && va.Value != vb.Value {
				code = 1
				fmt.Fprintf(w, "%-17s %-14s DIFFER     %v -> %v\n", ra.Workload, d.Name, va.Value, vb.Value)
			}
		}
	}
	return code
}

// summaryOf is the metric's sample summary; a metric without one (a
// single measurement) is a sample of one.
func summaryOf(v value) summary {
	if v.Summary != nil {
		return *v.Summary
	}
	return summary{N: 1, Median: v.Value, Q1: v.Value, Q3: v.Value, Min: v.Value, Max: v.Value}
}
