package sim

import (
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
)

// TestDriverStateMatchesClockDrivers pins the one production rate
// driver (DriverState, stepped by the harness core on the serial and
// sharded engines and by internal/rt) against the clock package's
// reference drivers: both must produce identical rate trajectories from
// the same forked streams. The harness re-implements the drivers as a
// step function over reseedable per-node state so rewiring allocates
// nothing and every harness can schedule it its own way; this test is
// what keeps it from silently diverging from the reference (a changed
// jitter formula or draw order on either side fails here).
func TestDriverStateMatchesClockDrivers(t *testing.T) {
	cases := []struct {
		name string
		spec DriverSpec
		ref  func(node int, rho float64, driveRand *des.Rand) clock.Driver
	}{
		{"RandomWalk", DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.RandomWalk{Rho: rho, Interval: 0.5, Rand: driveRand.Fork(uint64(node))}
			}},
		{"BangBang", DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.BangBang{Rho: rho, Interval: 0.7, StartHigh: node%2 == 0}
			}},
		{"Constant", DriverSpec{Kind: DriveConstant, Interval: 1},
			func(node int, rho float64, driveRand *des.Rand) clock.Driver {
				return clock.ConstantRate{Rate: 1}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				N: 4, Seed: 9, Horizon: 10, Rho: 0.02, MaxDelay: 0.01,
				Topology: TopologySpec{Kind: TopoRing},
				Driver:   tc.spec,
			}
			s := New(cfg)
			pcfg := cfg
			pcfg.Parallel, pcfg.Shards = true, 2
			ps := NewParallel(pcfg)

			// Reference wiring: bare clocks driven by the clock package's
			// drivers from the same per-node streams the harness forks
			// (root seed -> fork 0xd81fe -> fork node).
			en := des.NewEngine()
			driveRand := des.NewRand(cfg.Seed).Fork(0xd81fe)
			ref := make([]*clock.HardwareClock, cfg.N)
			for i := 0; i < cfg.N; i++ {
				ref[i] = clock.New(en, 1)
				tc.ref(i, cfg.Rho, driveRand).Install(en, ref[i])
			}

			// Rates are pure functions of driver events, so comparing them
			// at a grid of times compares the whole trajectory.
			for at := 0.25; at <= cfg.Horizon; at += 0.25 {
				s.Advance(at)
				ps.P.Run(at, 1)
				en.Run(at)
				for i := 0; i < cfg.N; i++ {
					want := ref[i].Rate()
					if got := s.Clocks[i].Rate(); got != want {
						t.Fatalf("t=%v node %d: serial harness rate %v, clock-driver rate %v", at, i, got, want)
					}
					if got := ps.Clocks[i].Rate(); got != want {
						t.Fatalf("t=%v node %d: sharded harness rate %v, clock-driver rate %v", at, i, got, want)
					}
				}
			}
			for i := 0; i < cfg.N; i++ {
				wmn, wmx := ref[i].RateBoundsSeen()
				for name, clocks := range map[string][]*clock.HardwareClock{"serial": s.Clocks, "sharded": ps.Clocks} {
					if gmn, gmx := clocks[i].RateBoundsSeen(); gmn != wmn || gmx != wmx {
						t.Fatalf("node %d rate bounds diverged: %s harness [%v,%v], reference [%v,%v]",
							i, name, gmn, gmx, wmn, wmx)
					}
				}
			}
		})
	}
}

// TestDriverStateSteps checks the step function alone, with no engine:
// from a given seed the first steps' (rate, delay) pairs are exactly the
// draws the reference drivers make, in their order.
func TestDriverStateSteps(t *testing.T) {
	const rho, interval, node, steps = 0.02, 0.5, 3, 6
	driveRand := des.NewRand(9).Fork(0xd81fe)

	t.Run("RandomWalk", func(t *testing.T) {
		var d DriverState
		d.Start(node, driveRand)
		want := driveRand.Fork(node)
		for k := 0; k < steps; k++ {
			rate, next := d.Step(DriverSpec{Kind: DriveRandomWalk, Interval: interval}, rho)
			wantRate := want.Range(1-rho, 1+rho)
			wantNext := interval * (0.5 + want.Float64())
			if rate != wantRate || next != wantNext {
				t.Fatalf("step %d: got (%v, %v), want (%v, %v)", k, rate, next, wantRate, wantNext)
			}
		}
	})
	t.Run("BangBang", func(t *testing.T) {
		for _, node := range []int{2, 3} {
			var d DriverState
			d.Start(node, driveRand)
			high := node%2 == 0
			for k := 0; k < steps; k++ {
				rate, next := d.Step(DriverSpec{Kind: DriveBangBang, Interval: interval}, rho)
				wantRate := 1 - rho
				if high {
					wantRate = 1 + rho
				}
				if rate != wantRate || next != interval {
					t.Fatalf("node %d step %d: got (%v, %v), want (%v, %v)", node, k, rate, next, wantRate, interval)
				}
				high = !high
			}
		}
	})
	t.Run("Constant", func(t *testing.T) {
		var d DriverState
		d.Start(node, driveRand)
		if rate, next := d.Step(DriverSpec{Kind: DriveConstant, Interval: interval}, rho); rate != 1 || next >= 0 {
			t.Fatalf("got (%v, %v), want rate 1 and no next step", rate, next)
		}
	})
}
