package main

import (
	"bytes"
	"strings"
	"testing"
)

func around(center, halfWidth float64) summary {
	return summarize([]float64{center - halfWidth, center - halfWidth/2, center, center + halfWidth/2, center + halfWidth})
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "cells_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"same", lower, around(2, 0.02), around(2, 0.02), unchanged},
		{"inside the bound", lower, around(2, 0.02), around(2.15, 0.02), unchanged},
		{"slower than the bound", lower, around(2, 0.02), around(2.3, 0.02), regressed},
		{"faster than the bound", lower, around(2, 0.02), around(1.7, 0.02), improved},
		{"higher is better: less is a regression", higher, around(100, 1), around(85, 1), regressed},
		{"higher is better: more is an improvement", higher, around(100, 1), around(115, 1), improved},
		{"noisy and overlapping", lower, around(2, 0.4), around(2.3, 0.4), unresolved},
		{"noisy on one side only", lower, around(2, 0.02), around(2.05, 0.4), unresolved},
		{"noisy but every run slower", lower, around(2, 0.3), around(3, 0.3), regressed},
		{"noisy but every run faster", lower, around(3, 0.3), around(2, 0.3), improved},
	} {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareResults(t *testing.T) {
	wall := func(center float64) map[string]value {
		s := around(center, 0.01)
		return map[string]value{"wall_s": {Value: s.Median, Unit: "s", N: s.N, Summary: &s}}
	}
	base := resultFile{Header: header{Seed: 1}, Results: []result{
		{Workload: "ring1k_serial", Metrics: wall(2), Counts: counts{Events: 10, ReportDigest: "aa"}},
		{Workload: "only_in_a", Metrics: wall(1)},
	}}
	with := func(edit func(*resultFile)) resultFile {
		f := resultFile{Header: base.Header, Results: append([]result(nil), base.Results[:1]...)}
		edit(&f)
		return f
	}
	for _, c := range []struct {
		name string
		b    resultFile
		code int
		says string
	}{
		{"identical", with(func(*resultFile) {}), 0, "counts         equal"},
		{"slower", with(func(f *resultFile) { f.Results[0].Metrics = wall(3) }), 1, regressed},
		{"faster", with(func(f *resultFile) { f.Results[0].Metrics = wall(1) }), 0, improved},
		{"physics changed", with(func(f *resultFile) { f.Results[0].Counts.Events++ }), 1, "DIFFER"},
		{"digest changed", with(func(f *resultFile) { f.Results[0].Counts.ReportDigest = "bb" }), 1, "DIFFER"},
		{"another seed", with(func(f *resultFile) { f.Header.Seed, f.Results[0].Counts.Events = 2, 11 }), 0, "skipped"},
		{"a check failed", with(func(f *resultFile) { f.Results[0].Failed = 1 }), 1, "failed operations"},
	} {
		var out bytes.Buffer
		if code := compareResults(&out, base, c.b); code != c.code || !strings.Contains(out.String(), c.says) {
			t.Errorf("%s: exit code %d, want %d, and %q in:\n%s", c.name, code, c.code, c.says, out.String())
		}
		if strings.Contains(out.String(), "only_in_a") {
			t.Errorf("%s: a workload missing from one side was compared", c.name)
		}
	}

	traced := func(events float64) resultFile {
		return resultFile{Header: header{Seed: 1, Trace: true}, Results: []result{{Workload: "w", Metrics: map[string]value{
			"des.events": {Value: events, Unit: "count"}, "sim.allocs_per_run": {Value: events, Unit: "count"}}}}}
	}
	var out bytes.Buffer
	if code := compareResults(&out, traced(100), traced(101)); code != 1 || !strings.Contains(out.String(), "des.events") ||
		strings.Contains(out.String(), "allocs") {
		t.Errorf("per-layer counts must match exactly, host-side allocation counts need not: code %d\n%s", code, out.String())
	}
}
