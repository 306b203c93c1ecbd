package main

import (
	"runtime"
	"time"

	"gcs/internal/sim"
)

// result assembles the workload's metrics: the end-to-end ones from an
// untraced run, the per-layer ones from a traced run. Every timing in it
// was taken in this package around a public call; the only numbers the
// program reports about itself are exact counts.
func (s *state) result(o options, e env, probed map[string]float64) result {
	res := result{
		Workload: s.w.name, Why: s.w.why, Reps: len(s.walls),
		Attempted: s.tally.attempted, Failed: s.tally.failed, FailFrac: s.tally.failFrac(), Notes: s.tally.notes,
		Counts:  s.counts,
		Metrics: map[string]value{},
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		s.perLayer(res.Metrics, e)
		for name, v := range probed {
			res.Metrics[name] = value{Value: v, N: probeRounds}
		}
	} else {
		s.endToEnd(res.Metrics)
	}
	// Units come from the declaration, so they cannot drift from it.
	for _, d := range defs {
		if v, ok := res.Metrics[d.Name]; ok {
			v.Unit = d.Unit
			res.Metrics[d.Name] = v
		}
	}
	return res
}

// reps reports f of every sample as a median with its summary.
func reps(xs []float64, f func(float64) float64) value {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	sm := summarize(ys)
	return value{Value: sm.Median, N: sm.N, Summary: &sm, Samples: ys}
}

func (s *state) endToEnd(m map[string]value) {
	same := func(x float64) float64 { return x }
	m["wall_s"] = reps(s.walls, same)
	m["node_s_per_s"] = reps(s.walls, func(w float64) float64 { return s.w.nodeSeconds / w })
	m["cells_per_s"] = reps(s.walls, func(w float64) float64 { return float64(s.w.cells) / w })
	m["setup_s"] = reps(s.setup, same)
	m["heap_live_mb"] = value{Value: s.heapMB, N: 1}
}

// med is the median, or 0 of nothing — the value of a per-layer metric
// the workload does not exercise.
func med(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (s *state) perLayer(m map[string]value, e env) {
	tr := s.tr
	put := func(name string, v float64, n int) { m[name] = value{Value: v, N: n} }
	untraced, traced := med(s.walls), med(s.traced)
	nt := float64(len(s.traced))

	// 1. Kind spans. Counts accumulate over the traced reps and repeat
	// exactly, so dividing by the rep count gives one rep's exact count.
	k := &tr.kinds
	events := float64(k.events()) / nt
	runs := tr.durations("sim.run")
	put("des.events", events, len(s.traced))
	put("des.ns_per_event", ratio(untraced*1e9, events), len(s.walls))
	put("des.events_per_s", ratio(events, untraced), len(s.walls))
	put("des.pending_max", float64(k.pendingMax), len(s.traced))
	put("des.kind_coverage_frac", ratio(float64(k.totalNs())/1e9, sum(runs)), len(runs))
	for i := 0; i < numKinds; i++ {
		put(kindNames[i]+".count", float64(k.count[i])/nt, len(s.traced))
		if i != kindPsimDeliver && i != kindOther {
			put(kindNames[i]+".ns_per_event", ratio(float64(k.ns[i]), float64(k.count[i])), int(k.count[i]))
		}
	}

	// 2. Phase and operation spans.
	put("sim.wire_cold_s", med(s.cold), len(s.cold))
	rewires, finals := tr.durations("sim.rewire"), tr.durations("sim.finalise")
	put("sim.rewire_s", med(rewires), len(rewires))
	put("sim.finalise_ms", med(finals)*1e3, len(finals))
	put("sim.allocs_per_run", med(s.allocs), len(s.allocs))
	put("sim.trace_overhead_frac", ratio(traced, untraced)-1, len(s.traced))

	var speedup, imbalance float64
	if n := len(tr.par.shardEvents); n > 0 {
		var total, most uint64
		for _, ev := range tr.par.shardEvents {
			total += ev
			most = max(most, ev)
		}
		imbalance = ratio(float64(most)*float64(n), float64(total))
		speedup = ratio(s.w1Wall, untraced)
	}
	put("des.par.windows", float64(tr.par.windows), len(s.traced))
	put("des.par.events_per_window", ratio(events, float64(tr.par.windows)), len(s.traced))
	put("des.par.shard_imbalance", imbalance, len(s.traced))
	put("des.par.speedup_w2", speedup, len(s.walls))
	put("des.par.efficiency_w2", speedup/float64(e.workers), len(s.walls))

	put("sim.cell_s.p50", med(runs), len(runs))
	put("sim.cell_s.max", summarize(runs).Max, len(runs))
	var balance float64
	if s.w.cells > 1 {
		balance = ratio(sum(runs), float64(e.workers)*sum(s.traced))
	}
	put("sim.sweep_balance", balance, len(runs))

	submits, sweeps, resumes := tr.durations("jobd.submit"), tr.durations("jobd.sweep"), tr.durations("jobd.resume")
	puts, gets, opens := tr.durations("store.put_cell"), tr.durations("store.get_cell"), tr.durations("store.open_replay")
	var overhead float64
	if len(sweeps) > 0 {
		overhead = 1 - ratio(sum(runs), float64(e.workers)*sum(sweeps))
	}
	// Both put percentiles by nearest rank, so that on a sample too small
	// for a tail the p95 falls back to exactly the p50.
	var p50, p95 float64
	if len(puts) > 0 {
		p50, p95 = tail(puts, 50), tail(puts, 95)
	}
	put("jobd.submit_ms", med(submits)*1e3, len(submits))
	put("jobd.overhead_frac", overhead, len(sweeps))
	put("jobd.cached_job_ms", ratio(med(resumes)*1e3, float64(len(submits))/nt), len(resumes))
	put("store.put_cell_ms.p50", p50*1e3, len(puts))
	put("store.put_cell_ms.p95", p95*1e3, len(puts))
	put("store.get_cell_us.p50", med(gets)*1e6, len(gets))
	put("store.open_replay_s", med(opens), len(opens))
	put("store.replay_mb_per_s", ratio(float64(tr.walBytes)/1e6, med(opens)), len(opens))
	put("store.wal_bytes_per_cell", float64(tr.walBytes)/float64(s.w.cells), len(opens))
}

// coldWires times three fresh wirings of cfg on a new Arena each.
func coldWires(cfg sim.Config) []float64 {
	out := make([]float64, 3)
	for i := range out {
		runtime.GC()
		t0 := time.Now()
		if cfg.Parallel {
			sim.NewArena().Parallel(cfg)
		} else {
			sim.NewArena().Sim(cfg)
		}
		out[i] = time.Since(t0).Seconds()
	}
	return out
}
