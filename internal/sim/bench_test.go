package sim

import "testing"

// These benchmarks are scale smokes and profiling entry points
// (`go test -run '^$' -bench Ring10k -cpuprofile cpu.out`), not the
// repo's performance record: `go run ./benchmark` times the seeded
// workloads and checks the paper's claim on every rep, and
// `go run ./benchmark -compare` compares two revisions. Allocation
// budgets are pinned by TestArenaSecondRunZeroAlloc. Every benchmark
// runs through a reused Arena with one warm-up run before the measured
// loop, so the numbers report the steady-state per-run cost a sweep
// actually pays.

func benchScenario(b *testing.B, cfg Config) {
	b.Helper()
	b.ReportAllocs()
	a := NewArena()
	// Warm the arena outside the measured loop (b.Loop resets the timer
	// and allocation counters on its first call).
	if rpt := a.Run(cfg); rpt.MaxGlobalSkew > rpt.Bound {
		b.Fatalf("skew %v exceeded bound %v", rpt.MaxGlobalSkew, rpt.Bound)
	}
	for b.Loop() {
		rpt := a.Run(cfg)
		if rpt.MaxGlobalSkew > rpt.Bound {
			b.Fatalf("skew %v exceeded bound %v", rpt.MaxGlobalSkew, rpt.Bound)
		}
	}
}

func ringConfig(n int) Config {
	return Config{
		N:        n,
		Seed:     1,
		Horizon:  10,
		Rho:      0.01,
		MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
	}
}

// BenchmarkRing256 is the quick smoke: one full 256-node ring
// simulation per iteration.
func BenchmarkRing256(b *testing.B) {
	benchScenario(b, ringConfig(256))
}

// BenchmarkRing10k is the 10k-node smoke scenario: the scale target the
// arena/sweep work exists for. It must complete comfortably
// within the CI budget (tens of seconds for warm-up plus one iteration).
func BenchmarkRing10k(b *testing.B) {
	benchScenario(b, ringConfig(10000))
}

// BenchmarkRing10kParallel is BenchmarkRing10k on the sharded parallel
// engine (8 shards, GOMAXPROCS workers). Compare against BenchmarkRing10k
// for the speedup; on a single-core host it instead measures the
// sharding overhead (windowing, cross-shard merge) at zero parallelism.
// Workers is left 0: the report is worker-invariant, while the wall
// clock and allocs/op (window goroutines) reflect the host's cores.
func BenchmarkRing10kParallel(b *testing.B) {
	cfg := ringConfig(10000)
	cfg.Parallel = true
	cfg.Shards = 8
	benchScenario(b, cfg)
}
