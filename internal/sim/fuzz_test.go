package sim

import (
	"math"
	"testing"
)

// FuzzConfigValidate fuzzes the harness-boundary contract: Validate
// must classify every input without panicking, and any config it
// accepts must survive the full derived-value surface — WithDefaults,
// both analytic bounds, and a defaulted re-validation — with sane
// results. This is the boundary a long-running sweep service trusts
// to reject arbitrary job payloads.
func FuzzConfigValidate(f *testing.F) {
	f.Add(16, uint64(1), 10.0, 0.01, 0.01, 0.0, int(TopoRing), 4, 4, int(DriveBangBang), 1.0, int(ChurnNone), 2.0, 0.5, false, 0, 0, 0.0)
	f.Add(12, uint64(7), 8.0, 0.02, 0.05, 0.01, int(TopoGrid), 3, 4, int(DriveRandomWalk), 0.5, int(ChurnRotatingStar), 1.0, 0.25, true, 4, 2, 0.0)
	f.Add(0, uint64(0), -1.0, 1.5, -0.5, 0.2, 99, 0, 0, 99, 0.0, 99, 0.0, 0.0, false, -3, -1, -1.0)
	f.Add(5, uint64(3), 6.0, 0.1, 0.02, 0.0, int(TopoComplete), 0, 0, int(DriveConstant), 0.0, int(ChurnVolatile), 1.5, 1.0, false, 0, 8, 0.0)
	// Shards without a delay floor (rejected), and with one but without
	// the sharding sugar (accepted).
	f.Add(16, uint64(1), 4.0, 0.01, 0.01, 0.0, int(TopoRing), 0, 0, int(DriveRandomWalk), 0.5, int(ChurnNone), 0.0, 0.0, false, 4, 0, 0.0)
	f.Add(16, uint64(1), 4.0, 0.01, 0.01, 0.0025, int(TopoRing), 0, 0, int(DriveRandomWalk), 0.5, int(ChurnNone), 0.0, 0.0, false, 4, 0, 0.0)
	// The Theorem 4.1 adversary, as gcsim lowerbound builds it.
	f.Add(32, uint64(1), 0.0, 0.01, 0.01, 0.0, int(TopoTwoChains), 0, 0, int(DriveConstant), 0.0, int(ChurnNone), 0.0, 0.0, false, 0, 0, 1e-5)
	// A NaN driver interval and a NaN churn lifetime (period feeds it),
	// both once accepted.
	f.Add(16, uint64(1), 4.0, 0.01, 0.01, 0.0, int(TopoRing), 0, 0, int(DriveRandomWalk), math.NaN(), int(ChurnNone), 0.0, 0.0, false, 0, 0, 0.0)
	f.Add(5, uint64(3), 6.0, 0.1, 0.02, 0.0, int(TopoComplete), 0, 0, int(DriveConstant), 0.0, int(ChurnVolatile), math.NaN(), 1.0, false, 0, 8, 0.0)
	f.Fuzz(func(t *testing.T, n int, seed uint64, horizon, rho, maxDelay, minDelay float64,
		topo, w, h, driver int, interval float64, churn int, period, overlap float64,
		parallel bool, shards, extra int, eps float64) {
		cfg := Config{
			N:        n,
			Seed:     seed,
			Horizon:  horizon,
			Rho:      rho,
			MaxDelay: maxDelay,
			MinDelay: minDelay,
			Topology: TopologySpec{Kind: TopologyKind(topo), W: w, H: h},
			Driver:   DriverSpec{Kind: DriverKind(driver), Interval: interval},
			Churn: ChurnSpec{
				Kind: ChurnKind(churn), Period: period, Overlap: overlap,
				Lifetime: period, Absence: overlap, ExtraEdges: extra,
			},
			Parallel:      parallel,
			Shards:        shards,
			LowerBoundEps: eps,
		}
		err := cfg.Validate()
		if err != nil {
			return
		}
		// No accepted config carries a NaN: it fails every comparison, so
		// it would reach a schedule or silently end a chain.
		for _, v := range []float64{horizon, rho, maxDelay, minDelay, interval, period, overlap, eps} {
			if math.IsNaN(v) {
				t.Fatalf("accepted a config carrying NaN: %+v", cfg)
			}
		}
		// Accepted configs must be fully usable without panics.
		d := cfg.WithDefaults()
		if again := d.Validate(); again != nil {
			t.Fatalf("defaulted form of an accepted config rejected: %v\ncfg: %+v", again, cfg)
		}
		// More than one shard runs only on the windowed engine.
		if d.Shards > 1 && !(d.MinDelay > 0) {
			t.Fatalf("accepted %d shards at MinDelay %v: %+v", d.Shards, d.MinDelay, cfg)
		}
		if b := cfg.GlobalSkewBound(); math.IsNaN(b) || b < 0 {
			t.Fatalf("GlobalSkewBound = %v for accepted config %+v", b, cfg)
		}
		if g := cfg.GradientBound(1); math.IsNaN(g) || g < 0 {
			t.Fatalf("GradientBound(1) = %v for accepted config %+v", g, cfg)
		}
		if cfg.GradientBound(0) != 0 || cfg.GradientBound(-1) != 0 {
			t.Fatal("GradientBound must be 0 at nonpositive distance")
		}
		// The gradient bound is monotone in distance.
		if cfg.GradientBound(2) < cfg.GradientBound(1) {
			t.Fatalf("gradient bound not monotone: d1=%v d2=%v", cfg.GradientBound(1), cfg.GradientBound(2))
		}
		// An accepted adversary has a two-chains network to lay out (a
		// horizon that overflows to +Inf is Validate's to reject once
		// LowerBoundExperiment derives it).
		if eps != 0 {
			if hz := lowerBoundHorizon(d); !(hz > 0) {
				t.Fatalf("lower-bound horizon %v for accepted config %+v", hz, cfg)
			}
		}
	})
}
