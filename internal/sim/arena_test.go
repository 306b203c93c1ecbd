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

// TestArenaSecondRunZeroAlloc pins the allocation budget of a same-shape
// re-run on a reused arena — engine reset, graph reset, transport reset,
// node resets, driver and churn reseeds, the full execution, and the
// report — for each workload shape. Unfaulted and faulted rings, the
// grid, the sharded ring (the same harness core, one worker so no window
// goroutines run), the rotating star, the volatile overlay and the
// Theorem 4.1 adversary allocate nothing. The sweep, which wires a fresh
// arena per call, carries an exact measured budget: a run above it is a
// regression, one below it means the budget should be lowered to what
// it now reads.
func TestArenaSecondRunZeroAlloc(t *testing.T) {
	ring := Config{
		N: 64, Seed: 11, Horizon: 5, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
	}
	faulted := ring
	faulted.Faults = FaultSpec{
		Drop: 0.05, Dup: 0.02, DelaySpike: 0.05,
		CrashEvery: 20, RateExcursionEvery: 20,
	}
	grid := ring
	grid.Topology = TopologySpec{Kind: TopoGrid, W: 8, H: 8}
	sharded := ring
	sharded.Parallel, sharded.Shards, sharded.Workers = true, 4, 1
	star := ring
	star.Topology = TopologySpec{}
	star.Churn = ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5}
	volatile := ring
	volatile.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: 32}
	lowerBound := lowerBoundBase(11)
	lowerBound.N, lowerBound.Horizon = 64, 5

	for _, tc := range []struct {
		name   string
		cfg    Config
		budget float64
	}{
		{"ring", ring, 0},
		{"faulted ring", faulted, 0},
		{"grid", grid, 0},
		{"sharded ring", sharded, 0},
		{"rotating star", star, 0},
		{"volatile overlay", volatile, 0},
		{"lower bound", lowerBound, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewArena()
			rpt := a.Run(tc.cfg) // first run pays the wiring
			if f := rpt.Faults; tc.cfg.Faults.Enabled() &&
				(f.Drops == 0 || f.Dups == 0 || f.DelaySpikes == 0 || f.Crashes == 0 || f.RateExcursions == 0) {
				t.Fatalf("fault plan left a fault class off the measured path: %+v", f)
			}
			// AllocsPerRun's warm-up call absorbs free-list capacity
			// growth from releasing the first run's still-pending
			// events; every measured cycle is a steady-state reuse.
			checkAllocs(t, tc.budget, func() { a.Run(tc.cfg) })
		})
	}
	t.Run("serial sweep", func(t *testing.T) {
		cells := allocSweepCells()
		// A fresh arena per call, rewired across the cells' shapes. Its
		// engine's events share one slab, not one allocation each.
		checkAllocs(t, 265, func() { RunSweep(cells, 1) })
	})
}

// TestColdWiringAllocsPerNode pins what wiring a fresh 1024-node ring
// allocates per node. The node and clock slabs are one allocation each
// and the clocks' timers live inside them, so what remains per node is
// its node's two timer callbacks and its graph adjacency. A per-clock
// closure or timer object would add at least one. The ceiling is the
// measured 4.055 (linux/amd64, go1.24): 4 per node plus the wiring's
// fixed cost.
func TestColdWiringAllocsPerNode(t *testing.T) {
	const n, ceiling = 1024, 4.06
	cfg := Config{
		N: n, Seed: 3, Horizon: 1, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
	}
	if per := testing.AllocsPerRun(3, func() { NewArena().Sim(cfg) }) / n; per > ceiling {
		t.Errorf("cold wiring allocated %.3f objects per node, ceiling %v", per, ceiling)
	}
}

func checkAllocs(t *testing.T, budget float64, run func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(3, run); allocs != budget {
		t.Errorf("allocated %v objects/op, budget %v", allocs, budget)
	}
}

// allocSweepCells is the gradient-grid sweep shape: two node counts x
// two drivers x ring and line, one derived seed per cell.
func allocSweepCells() []SweepCell {
	var cells []SweepCell
	for _, n := range []int{16, 32} {
		for _, drv := range []DriverSpec{
			{Kind: DriveRandomWalk, Interval: 0.5},
			{Kind: DriveBangBang, Interval: 0.7},
		} {
			for _, topo := range []TopologySpec{{Kind: TopoRing}, {Kind: TopoLine}} {
				cells = append(cells, SweepCell{
					Name: topo.Kind.String(),
					Cfg: Config{
						N: n, Seed: CellSeed(1, len(cells)), Horizon: 5,
						Rho: 0.01, MaxDelay: 0.01, Topology: topo, Driver: drv,
					},
				})
			}
		}
	}
	return cells
}

// TestArenaOneShardReuse pins the one harness's engine sets: a serial
// config (MinDelay 0) runs on one shard that is the global engine, with
// no shard table, and an arena keeps that engine and its node pool as N
// changes. One shard with a delay floor is windowed, its shard apart from
// the global engine. Switching to a sharded shape and back rebuilds, and
// every run still matches a fresh wiring.
func TestArenaOneShardReuse(t *testing.T) {
	small := arenaConfigs()[0]
	large := small
	large.N = 2 * small.N
	oneShard := churnyConfig(5)
	oneShard.Parallel, oneShard.Shards = true, 1

	a := NewArena()
	s := a.Sim(small)
	p, first := s.P, s.Nodes[0]
	if s.P.NumShards() != 1 || s.P.Shard(0) != s.Engine || s.shardOf != nil {
		t.Fatalf("serial config: %d shards, shard 0 is global: %v, shard table %v",
			s.P.NumShards(), s.P.Shard(0) == s.Engine, s.shardOf)
	}
	simtest.AssertSameReport(t, "small", s.Run(), mustRun(t, small))
	if s = a.Sim(large); s.P != p || s.Nodes[0] != first {
		t.Fatal("growing N on one shard rebuilt the engine or the node pool")
	}
	simtest.AssertSameReport(t, "large after small", s.Run(), mustRun(t, large))
	for _, cfg := range []Config{parallelRingConfig(32, 4), oneShard, small} {
		s = a.Sim(cfg)
		if want := max(cfg.Shards, 1); s.P.NumShards() != want {
			t.Fatalf("%+v: %d shards, want %d", cfg, s.P.NumShards(), want)
		}
		if windowed := s.Cfg.MinDelay > 0; windowed == (s.P.Shard(0) == s.Engine) {
			t.Fatalf("%+v: MinDelay %v, shard 0 is the global engine: %v", cfg, s.Cfg.MinDelay, !windowed)
		}
		simtest.AssertSameReport(t, fmt.Sprintf("shards=%d after a shape change", cfg.Shards), s.Run(), mustRun(t, cfg))
	}
}
