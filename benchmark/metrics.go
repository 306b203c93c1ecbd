package main

// This file fixes the names. A later performance or simplicity change
// names one metric and one workload from these tables; BENCHMARK.json
// repeats them (bench_test.go pins that the two agree) and README.md
// says what each one means and which end-to-end number it should move.

// metricDef is one declared metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change is a
// regression; per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the numbers a user of the system waits for, measured
// with tracing off. fail_frac of the design is not a metric here: it is
// 0 on a healthy tree, so it travels as the result line's
// failed/attempted pair and a nonzero exit instead.
//
// The three timings carry the widest bound the contract allows. That is
// a measurement, not a preference: on the 2-vCPU host this was defined
// on, the machine's own speed drifts by up to a tenth over minutes
// (README.md, "Noise"), so ten runs of unchanged code spread by 5-8% of
// their median and once by 18%, and a longer run does not narrow that.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"node_s_per_s", "node.s/s", "higher", 0.25},
	{"cells_per_s", "cells/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.10},
}

// kinds are the event kinds the trace hook charges host time to. An
// event's kind comes from its des label; see kindOf.
const (
	kindDeliver = iota
	kindBeacon
	kindCatchup
	kindDrive
	kindSample
	kindChurn
	kindFault
	kindPsimDeliver
	kindOther
	numKinds
)

var kindNames = [numKinds]string{
	kindDeliver:     "transport.deliver",
	kindBeacon:      "gcs.beacon",
	kindCatchup:     "gcs.catchup",
	kindDrive:       "clock.drive",
	kindSample:      "sim.sample",
	kindChurn:       "dyngraph.churn",
	kindFault:       "fault.inject",
	kindPsimDeliver: "psim.deliver",
	kindOther:       "des.other",
}

// kindOf maps a des event label to its kind. Unknown labels land in
// des.other, so the kind counts always sum to the engine's executed
// count and a label a later change introduces shows up as a nonzero
// des.other.count rather than vanishing.
func kindOf(label string) int {
	switch label {
	case "transport.deliver":
		return kindDeliver
	case "gcs.beacon":
		return kindBeacon
	case "gcs.catchup":
		return kindCatchup
	case "sim.sample":
		return kindSample
	case "psim.deliver":
		return kindPsimDeliver
	}
	if len(label) > 6 {
		switch label[:6] {
		case "clock.":
			return kindDrive
		case "churn.":
			return kindChurn
		case "fault.":
			return kindFault
		}
	}
	return kindOther
}

// perLayer lists every per-layer metric, in print order. Every traced
// run emits all of them; one that the workload does not exercise (the
// jobd numbers on a ring, the window counts on the serial engine) reads
// 0, which for the counts is the exact, meaningful value.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var m []metricDef
	add := func(name, unit, better string) { m = append(m, metricDef{Name: name, Unit: unit, Better: better}) }

	// 1. Kind spans of the traced run.
	add("des.events", "count", "lower")
	add("des.ns_per_event", "ns", "lower")
	add("des.events_per_s", "1/s", "higher")
	add("des.pending_max", "count", "lower")
	add("des.kind_coverage_frac", "ratio", "higher")
	for k := 0; k < numKinds; k++ {
		add(kindNames[k]+".count", "count", "lower")
		if k != kindPsimDeliver && k != kindOther {
			add(kindNames[k]+".ns_per_event", "ns", "lower")
		}
	}

	// 2. Phase and operation spans around public calls.
	add("sim.wire_cold_s", "s", "lower")
	add("sim.rewire_s", "s", "lower")
	add("sim.finalise_ms", "ms", "lower")
	add("sim.allocs_per_run", "count", "lower")
	add("sim.trace_overhead_frac", "ratio", "lower")
	add("des.par.windows", "count", "lower")
	add("des.par.events_per_window", "count", "higher")
	add("des.par.shard_imbalance", "ratio", "lower")
	add("des.par.speedup_w2", "ratio", "higher")
	add("des.par.efficiency_w2", "ratio", "higher")
	add("sim.cell_s.p50", "s", "lower")
	add("sim.cell_s.max", "s", "lower")
	add("sim.sweep_balance", "ratio", "higher")
	add("jobd.submit_ms", "ms", "lower")
	add("jobd.overhead_frac", "ratio", "lower")
	add("jobd.cached_job_ms", "ms", "lower")
	add("store.put_cell_ms.p50", "ms", "lower")
	add("store.put_cell_ms.p95", "ms", "lower")
	add("store.get_cell_us.p50", "us", "lower")
	add("store.open_replay_s", "s", "lower")
	add("store.replay_mb_per_s", "MB/s", "higher")
	add("store.wal_bytes_per_cell", "B", "lower")

	// 3. Layer probes.
	for _, p := range probes {
		add(p.name, p.unit, p.better)
	}
	return m
}
