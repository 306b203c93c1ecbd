package sim

import (
	"fmt"
	"testing"

	"gcs/internal/simtest"
)

// arenaConfigs covers every stochastic subsystem the rewiring path must
// reseed: random-walk drivers, volatile churn, the rotating star's
// discovery bursts, and plain static rings.
func arenaConfigs() []Config {
	return []Config{
		{
			N: 24, Seed: 5, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
			Topology: TopologySpec{Kind: TopoRing},
			Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		},
		{
			N: 16, Seed: 9, Horizon: 12, Rho: 0.02, MaxDelay: 0.02,
			Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 1},
			Churn:  ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5},
		},
		churnyConfig(77),
		{
			N: 12, Seed: 3, Horizon: 8,
			Topology:      TopologySpec{Kind: TopoGrid, W: 4, H: 3},
			Driver:        DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			CheckGradient: true,
		},
	}
}

// TestArenaReuseMatchesFreshRun is the arena's correctness anchor: a
// run on a reused (and reshaped) simulation must be bit-identical to a
// freshly wired run of the same config, for every scenario family and
// in any interleaving order.
func TestArenaReuseMatchesFreshRun(t *testing.T) {
	cfgs := arenaConfigs()
	a := NewArena()
	// Forward pass warms the arena across shapes; the second pass rests
	// entirely on reuse (every shape was seen before).
	for pass := 0; pass < 2; pass++ {
		for i, cfg := range cfgs {
			got := a.Run(cfg)
			want := mustRun(t, cfg)
			simtest.AssertSameReport(t, fmt.Sprintf("pass %d config %d: arena vs fresh", pass, i), got, want)
			if got.EventsExecuted == 0 || got.Transport.Delivered == 0 {
				t.Fatalf("pass %d config %d: degenerate execution: %+v", pass, i, got)
			}
		}
	}
}

// TestArenaSeedChangeOnReuse pins that rewiring actually reseeds the
// PRNG streams: the same shape under a different seed must diverge.
func TestArenaSeedChangeOnReuse(t *testing.T) {
	cfg := arenaConfigs()[0]
	a := NewArena()
	first := a.Run(cfg)
	cfg.Seed++
	second := a.Run(cfg)
	simtest.AssertReportsDiffer(t, "reused arena, seed change", first, second)
}

// TestArenaGrowAndShrink reuses one arena across node counts in both
// directions; every run must still match a fresh wiring.
func TestArenaGrowAndShrink(t *testing.T) {
	a := NewArena()
	for _, n := range []int{8, 64, 16, 128, 32} {
		cfg := Config{
			N: n, Seed: uint64(n), Horizon: 6, Rho: 0.01, MaxDelay: 0.01,
			Topology: TopologySpec{Kind: TopoRing},
			Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		}
		got := a.Run(cfg)
		want := mustRun(t, cfg)
		simtest.AssertSameReport(t, fmt.Sprintf("n=%d: arena vs fresh", n), got, want)
	}
}

// TestArenaSecondRunZeroAlloc is the tentpole acceptance pin: re-running
// a same-shape config on a reused arena — engine reset, graph reset,
// transport reset, node resets, driver reseeds, the full execution, and
// the report — performs zero allocations. The config exercises the
// random-walk driver so the reseedable per-node driver streams are on
// the measured path.
func TestArenaSecondRunZeroAlloc(t *testing.T) {
	cfg := Config{
		N: 64, Seed: 11, Horizon: 5, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
	}
	a := NewArena()
	a.Run(cfg) // first run pays the wiring
	// AllocsPerRun's warm-up call absorbs free-list capacity growth from
	// releasing the first run's still-pending events; every measured
	// cycle is a steady-state reuse.
	allocs := testing.AllocsPerRun(3, func() {
		a.Run(cfg)
	})
	if allocs > 0 {
		t.Errorf("re-run on a reused arena allocated %v objects/op, want 0", allocs)
	}
}

// TestArenaShardedRewireZeroAlloc is the sharded counterpart: the
// sharded harness rewires through the same harness core, so a same-shape
// re-run reuses the cached initial edge set and analytic bound instead
// of rebuilding them per rewire. One worker, so no window goroutines are
// spawned on the measured path.
func TestArenaShardedRewireZeroAlloc(t *testing.T) {
	cfg := Config{
		N: 64, Seed: 11, Horizon: 5, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Parallel: true, Shards: 4, Workers: 1,
	}
	a := NewArena()
	a.Run(cfg)
	allocs := testing.AllocsPerRun(3, func() {
		a.Run(cfg)
	})
	if allocs > 0 {
		t.Errorf("sharded re-run on a reused arena allocated %v objects/op, want 0", allocs)
	}
}

// TestArenaTraceReuse pins that a TraceRecorder attached per run on a
// reused arena records the same series as on a fresh simulation.
func TestArenaTraceReuse(t *testing.T) {
	cfg := arenaConfigs()[0]
	a := NewArena()
	a.Run(cfg) // warm
	tr := NewTraceRecorder(1, 256)
	s := a.Sim(cfg)
	s.AttachTrace(tr)
	got := s.Run()

	want := New(cfg)
	trWant := NewTraceRecorder(cfg.N, 256)
	want.AttachTrace(trWant)
	want.Run()

	if tr.Len() == 0 || tr.Len() != trWant.Len() {
		t.Fatalf("trace lengths diverged: arena %d, fresh %d", tr.Len(), trWant.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		ta, va := tr.Sample(i)
		tb, vb := trWant.Sample(i)
		if ta != tb {
			t.Fatalf("trace sample %d at time %v, fresh at %v", i, ta, tb)
		}
		simtest.AssertSameReport(t, fmt.Sprintf("trace sample %d", i), va, vb)
	}
	if got.Samples != tr.Len() {
		t.Fatalf("report counted %d samples, trace holds %d", got.Samples, tr.Len())
	}
}
