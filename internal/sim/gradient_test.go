package sim

import (
	"math"
	"reflect"
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/gcs"
)

// TestGradientWithinBoundOnScenarios is the tentpole acceptance test:
// on Line, Ring, and RotatingStar scenarios the observed per-distance
// local skew must stay within GradientBound(d) at every distance, per
// sample, across the whole run.
func TestGradientWithinBoundOnScenarios(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"Line", Config{
			N: 16, Seed: 7, Horizon: 30, Rho: 0.01, MaxDelay: 0.01,
			Topology: TopologySpec{Kind: TopoLine},
			Driver:   DriverSpec{Kind: DriveBangBang, Interval: 0.7},
		}},
		{"Ring", Config{
			N: 16, Seed: 7, Horizon: 30, Rho: 0.01, MaxDelay: 0.01,
			Topology: TopologySpec{Kind: TopoRing},
			Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		}},
		{"RotatingStar", Config{
			N: 16, Seed: 7, Horizon: 30, Rho: 0.01, MaxDelay: 0.01,
			Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
			Churn:  ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.CheckGradient = true
			s := New(cfg)
			rpt := s.Run()
			gc := s.gradient
			if gc == nil || gc.samples != rpt.Samples {
				t.Fatalf("checker missing or undersampled: %+v", gc)
			}
			if gc.maxDist < 1 {
				t.Fatal("no pair at any positive distance: checker degenerate")
			}
			if d, skew, ok := firstViolation(gc, cfg.GradientBound); !ok {
				t.Fatalf("gradient violated at distance %d: skew %v > bound %v",
					d, skew, cfg.GradientBound(d))
			}
			// The report mirrors the checker's buckets.
			if len(rpt.PerDistanceSkew) != gc.maxDist+1 {
				t.Fatalf("report buckets %d, checker maxDist %d",
					len(rpt.PerDistanceSkew), gc.maxDist)
			}
			for d := 1; d <= gc.maxDist; d++ {
				if rpt.PerDistanceSkew[d] != gc.maxByDist[d] {
					t.Fatalf("report bucket %d = %v, checker %v",
						d, rpt.PerDistanceSkew[d], gc.maxByDist[d])
				}
			}
			// The distance-1 bucket and MaxAdjacentSkew observe the same
			// quantity (edges are exactly the distance-1 pairs).
			if gc.maxByDist[1] != rpt.MaxAdjacentSkew {
				t.Fatalf("distance-1 bucket %v != MaxAdjacentSkew %v",
					gc.maxByDist[1], rpt.MaxAdjacentSkew)
			}
		})
	}
}

// TestGradientBoundShape pins the bound's analytic structure: zero below
// distance 1, linear growth in d, and +Inf when both catch-up regimes
// are disabled (no gradient property without a correction mechanism).
func TestGradientBoundShape(t *testing.T) {
	cfg := Config{N: 8, Topology: TopologySpec{Kind: TopoLine}}
	if cfg.GradientBound(0) != 0 || cfg.GradientBound(-3) != 0 {
		t.Fatal("nonpositive distance must have zero bound")
	}
	b1, b2, b4 := cfg.GradientBound(1), cfg.GradientBound(2), cfg.GradientBound(4)
	if !(b1 > 0) || b2 != 2*b1 || b4 != 4*b1 {
		t.Fatalf("bound not linear in d: %v %v %v", b1, b2, b4)
	}
	if cfg.GlobalSkewBound() < cfg.GradientBound(1) {
		t.Fatal("per-edge gradient bound exceeds the global bound")
	}
	// No correction mechanism, no gradient property: with jumps and the
	// fast rate both disabled the bound degenerates to +Inf.
	none := cfg
	none.Node.JumpThreshold = math.Inf(1)
	none.Node.Mu = gcs.MuDisabled
	if !math.IsInf(none.GradientBound(1), 1) {
		t.Fatalf("bound with no catch-up regime = %v, want +Inf", none.GradientBound(1))
	}
}

// TestGradientDistanceMatrixInvalidationAcrossChurn checks the lazy
// revalidation wiring end to end: under volatile churn the checker must
// recompute distances across epochs (more than once) but at most once
// per sample.
func TestGradientDistanceMatrixInvalidationAcrossChurn(t *testing.T) {
	cfg := churnyConfig(13)
	cfg.CheckGradient = true
	s := New(cfg)
	rpt := s.Run()
	gc := s.gradient
	if rpt.EdgeAdds == 0 {
		t.Fatal("churn never fired")
	}
	if gc.Recomputes() < 2 {
		t.Fatalf("distance matrix never invalidated across churn epochs: %d recomputes", gc.Recomputes())
	}
	if gc.Recomputes() > gc.samples {
		t.Fatalf("recomputed %d times over %d samples: revalidation not lazy",
			gc.Recomputes(), gc.samples)
	}
	if d, skew, ok := firstViolation(gc, cfg.GradientBound); !ok {
		t.Fatalf("gradient violated under churn at distance %d: skew %v > bound %v",
			d, skew, cfg.GradientBound(d))
	}
}

// TestGradientCheckSteadyStateDoesNotAllocate pins the per-sample check:
// once wired, an observe pass (clock reads, trace-free sampling, distance
// revalidation, full pair scan) allocates nothing on a static topology.
func TestGradientCheckSteadyStateDoesNotAllocate(t *testing.T) {
	cfg := Config{
		N: 32, Seed: 3, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
		Topology:      TopologySpec{Kind: TopoRing},
		Driver:        DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		CheckGradient: true,
	}
	s := New(cfg)
	s.Advance(2) // warm up: buffers sized, matrix computed
	if allocs := testing.AllocsPerRun(100, func() { s.observe() }); allocs > 0 {
		t.Errorf("per-sample gradient check allocated %v objects/op, want 0", allocs)
	}
}

// TestRunIsIdempotent is the regression test for the totals
// re-accumulation bug: Run after Advance-stepping, and a second Run,
// must report each jump/message/beacon exactly once.
func TestRunIsIdempotent(t *testing.T) {
	cfg := churnyConfig(42)
	oneShot := mustRun(t, cfg)

	s := New(cfg)
	s.Advance(cfg.Horizon / 3)
	s.Advance(2 * cfg.Horizon / 3)
	stepped := s.Run()
	if !reflect.DeepEqual(oneShot, stepped) {
		t.Fatalf("Run after Advance diverged from one-shot Run:\n  one-shot = %+v\n  stepped  = %+v",
			oneShot, stepped)
	}
	again := s.Run()
	if !reflect.DeepEqual(stepped, again) {
		t.Fatalf("second Run diverged:\n  first  = %+v\n  second = %+v", stepped, again)
	}
	if again.TotalBeacons == 0 || again.TotalMessages == 0 {
		t.Fatalf("degenerate totals: %+v", again)
	}
}

// TestVolatileCandidatesDenseBackboneFallback is the regression test for
// silent under-provisioning: when rejection sampling cannot fill the
// request, deterministic enumeration must supply every remaining
// non-backbone pair — and only genuinely exhausted graphs may come up
// short.
func TestVolatileCandidatesDenseBackboneFallback(t *testing.T) {
	// Star backbone over 6 nodes: 5 backbone edges, 10 candidate pairs.
	// Requesting 12 must yield exactly the 10 that exist.
	cfg := Config{
		N: 6, Seed: 1, Horizon: 1,
		Topology: TopologySpec{Kind: TopoStar},
		Churn: ChurnSpec{
			Kind: ChurnVolatile, Lifetime: 1, Absence: 1, ExtraEdges: 12,
		},
	}
	s := New(cfg)
	got := volatileCandidates(cfg.N, cfg.Churn.ExtraEdges, s.initialEdges, des.NewRand(99))
	if len(got) != 10 {
		t.Fatalf("got %d candidates, want all 10 non-backbone pairs", len(got))
	}
	seen := map[dyngraph.Edge]bool{}
	for _, e := range got {
		if e.U == 0 || seen[e] {
			t.Fatalf("candidate %v is a backbone edge or duplicate", e)
		}
		seen[e] = true
	}

	// Complete backbone: zero candidates exist; the fallback must detect
	// true exhaustion rather than loop or fabricate edges.
	cfg.Topology = TopologySpec{Kind: TopoComplete}
	if got := volatileCandidates(cfg.N, cfg.Churn.ExtraEdges, New(cfg).initialEdges, des.NewRand(1)); len(got) != 0 {
		t.Fatalf("complete backbone produced %d phantom candidates", len(got))
	}
}

// TestDiscoveryBeaconsOverFreshEdge checks the sim wiring of neighbor
// discovery: a scripted edge appearance mid-run makes both endpoints
// beacon immediately, and the values cross within one message delay.
func TestDiscoveryBeaconsOverFreshEdge(t *testing.T) {
	cfg := Config{
		N: 8, Seed: 5, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoLine},
		Driver:   DriverSpec{Kind: DriveConstant},
	}
	// Periodic beacons are pushed past the horizon, so the only traffic
	// in the window around the edge add is the discovery exchange itself.
	cfg.Node.BeaconEvery = 100
	s := New(cfg)
	e := dyngraph.E(0, 7)
	s.Engine.Schedule(5, "test.edge", func() { s.Graph.Add(5, e) })
	s.Advance(4.999)
	if d := s.Nodes[0].Snap().Discoveries; d != 0 {
		t.Fatalf("discovery fired before the edge appeared: %d", d)
	}
	msgsBefore := s.Nodes[0].Snap().Messages
	s.Advance(5 + cfg.MaxDelay + 1e-9)
	if d := s.Nodes[0].Snap().Discoveries; d != 1 {
		t.Fatalf("node 0 discoveries = %d, want 1", d)
	}
	if d := s.Nodes[7].Snap().Discoveries; d != 1 {
		t.Fatalf("node 7 discoveries = %d, want 1", d)
	}
	// The discovery beacon from node 7 must already have arrived at node
	// 0 — within one delay of the edge add, not one BeaconEvery later.
	if after := s.Nodes[0].Snap().Messages; after <= msgsBefore {
		t.Fatalf("no message crossed the fresh edge within the delay bound (%d -> %d)",
			msgsBefore, after)
	}
	rpt := s.Run()
	if rpt.TotalDiscoveries != 2 {
		t.Fatalf("TotalDiscoveries = %d, want 2", rpt.TotalDiscoveries)
	}
}

// TestGradientRadiusCappedAgreesWithExact pins the truncation contract:
// a radius-capped checker must produce exactly the exact checker's
// buckets 1..r and nothing beyond, on both static and churny scenarios.
func TestGradientRadiusCappedAgreesWithExact(t *testing.T) {
	base := Config{
		N: 24, Seed: 9, Horizon: 15, Rho: 0.01, MaxDelay: 0.01,
		Topology:      TopologySpec{Kind: TopoRing},
		Driver:        DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		CheckGradient: true,
	}
	churny := churnyConfig(9)
	churny.CheckGradient = true
	for name, cfg := range map[string]Config{"Ring": base, "Churny": churny} {
		t.Run(name, func(t *testing.T) {
			exact := New(cfg)
			exact.Run()
			for _, radius := range []int{1, 3, 5} {
				capped := cfg
				capped.GradientRadius = radius
				s := New(capped)
				s.Run()
				gc := s.gradient
				if gc.maxDist > radius {
					t.Fatalf("radius %d checker filled bucket %d", radius, gc.maxDist)
				}
				for d := 1; d <= radius; d++ {
					if got, want := gc.maxByDist[d], exact.gradient.maxByDist[d]; got != want {
						t.Fatalf("radius %d bucket %d = %v, exact %v", radius, d, got, want)
					}
				}
			}
		})
	}
}

// TestGradientSampledSourcesSubsetOfExact pins source sampling: every
// bucket a sampled checker fills is bounded by the exact checker's
// bucket (it observes a subset of pairs), the distance-1 observations
// still catch real skew, and the source choice is deterministic.
func TestGradientSampledSourcesSubsetOfExact(t *testing.T) {
	cfg := Config{
		N: 24, Seed: 9, Horizon: 15, Rho: 0.01, MaxDelay: 0.01,
		Topology:      TopologySpec{Kind: TopoRing},
		Driver:        DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		CheckGradient: true,
	}
	exact := New(cfg)
	exact.Run()

	sampled := cfg
	sampled.GradientSources = 6
	s1 := New(sampled)
	r1 := s1.Run()
	gc := s1.gradient
	if gc.maxDist < 1 {
		t.Fatal("sampled checker observed no pairs")
	}
	for d := 1; d <= gc.maxDist; d++ {
		if gc.maxByDist[d] > exact.gradient.maxByDist[d] {
			t.Fatalf("sampled bucket %d = %v exceeds exact %v",
				d, gc.maxByDist[d], exact.gradient.maxByDist[d])
		}
	}
	// Determinism: a second identical run reproduces the report exactly.
	s2 := New(sampled)
	r2 := s2.Run()
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("sampled-source run not deterministic:\n  %+v\n  %+v", r1, r2)
	}

	// Radius + sources compose.
	both := sampled
	both.GradientRadius = 2
	s3 := New(both)
	s3.Run()
	if s3.gradient.maxDist > 2 {
		t.Fatalf("radius+sources checker filled bucket %d", s3.gradient.maxDist)
	}
}

// TestGradientCappedSteadyStateDoesNotAllocate extends the zero-alloc
// pin to the radius-capped, source-sampled observe path.
func TestGradientCappedSteadyStateDoesNotAllocate(t *testing.T) {
	cfg := Config{
		N: 64, Seed: 3, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
		Topology:        TopologySpec{Kind: TopoRing},
		Driver:          DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		CheckGradient:   true,
		GradientRadius:  4,
		GradientSources: 16,
	}
	s := New(cfg)
	s.Advance(2)
	if allocs := testing.AllocsPerRun(100, func() { s.observe() }); allocs > 0 {
		t.Errorf("capped gradient check allocated %v objects/op, want 0", allocs)
	}
}

// firstViolation compares every bucket of gc against bound(d) and
// returns the first violating distance with its observed skew, or
// (0, 0, true) if every bucket is within its bound.
func firstViolation(gc *GradientChecker, bound func(d int) float64) (d int, skew float64, ok bool) {
	for d := 1; d <= gc.maxDist; d++ {
		if gc.maxByDist[d] > bound(d) {
			return d, gc.maxByDist[d], false
		}
	}
	return 0, 0, true
}
