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
// once wired, an observe pass (clock reads, the series append, distance
// revalidation, full pair scan) allocates nothing on a static topology,
// and a churned observe, one whose epoch moved since the last so that
// it folds the sample inside the BFS, allocates nothing either.
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

	// Churned: a graph of the checker's own whose epoch moves before
	// every observe, so the graph's bookkeeping is measured apart.
	gc, g, e := s.gradient, dyngraph.NewDynamic(cfg.N, dyngraph.Ring(cfg.N)), dyngraph.E(0, cfg.N/2)
	now := 0.0
	toggle := func() {
		if now++; g.Present(e) {
			g.Remove(now, e)
		} else {
			g.Add(now, e)
		}
	}
	for g.Epoch() <= s.Graph.Epoch() {
		toggle() // the checker keys on epochs: never meet the run's own
	}
	epochs := gc.Recomputes()
	base := testing.AllocsPerRun(100, toggle)
	churned := testing.AllocsPerRun(100, func() {
		toggle()
		gc.observe(g, s.vals)
	})
	if extra := churned - base; extra > 0 {
		t.Errorf("churned gradient check allocated %v objects/op, want 0", extra)
	}
	if folds := gc.Recomputes() - epochs; folds != 101 || field(gc.dm, "builds").Int() != 1 {
		t.Errorf("%d epochs over 101 churned observes, %d builds: want every observe folded and the static build alone",
			folds, field(gc.dm, "builds").Int())
	}
}

// TestGradientStaticRunFoldsOnceThenBuilds pins the two paths on a
// static topology: the first sample folds inside the BFS without
// building the matrix, the second builds it once, and every later one
// scans it. The run meets one epoch.
func TestGradientStaticRunFoldsOnceThenBuilds(t *testing.T) {
	cfg := Config{
		N: 24, Seed: 5, Horizon: 3, Rho: 0.01, MaxDelay: 0.01,
		Topology:      TopologySpec{Kind: TopoRing},
		Driver:        DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		CheckGradient: true,
	}
	s := New(cfg)
	gc := s.gradient
	s.Advance(cfg.WithDefaults().SampleEvery / 2)
	if gc.samples != 1 || gc.Recomputes() != 1 || field(gc.dm, "builds").Int() != 0 {
		t.Fatalf("after the first sample: %d samples, %d epochs, %d builds; want 1, 1, 0",
			gc.samples, gc.Recomputes(), field(gc.dm, "builds").Int())
	}
	rpt := s.Run()
	if gc.samples < 3 || rpt.DistanceRecomputes != 1 || field(gc.dm, "builds").Int() != 1 {
		t.Fatalf("after the run: %d samples, %d epochs, %d builds; want at least 3, 1, 1",
			gc.samples, rpt.DistanceRecomputes, field(gc.dm, "builds").Int())
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

// TestGradientCheckerMatchesPairScan holds the checker to a pair scan
// over a freshly built matrix after every sample, bit for bit: buckets
// and the largest raised distance. The topology changes at about one
// sample in four and holds for stretches in between, so folds, builds
// and scans of the pairs listed by distance all take part; some nodes
// read NaN (crashed) and values repeat; and the clock spread shrinks
// tenfold half way, so the scan's skip of distances whose bucket
// already holds the spread fires too.
func TestGradientCheckerMatchesPairScan(t *testing.T) {
	for _, n := range []int{2, 3, 40, 130} {
		r := des.NewRand(uint64(n))
		g := dyngraph.NewDynamic(n, dyngraph.Line(n))
		gc := newGradientChecker(n)
		want, vals := make([]float64, n), make([]float64, n)
		wantMax, folds := 0, 0
		for step := 1; step <= 200; step++ {
			if r.Intn(4) == 0 {
				if u, v := r.Intn(n), r.Intn(n); u != v {
					if e := dyngraph.E(u, v); g.Present(e) {
						g.Remove(float64(step), e)
					} else {
						g.Add(float64(step), e)
					}
				}
			}
			scale := 1.0
			if step > 100 {
				scale = 0.1
			}
			for i := range vals {
				switch r.Intn(10) {
				case 0:
					vals[i] = math.NaN()
				case 1:
					vals[i] = 7
				default:
					vals[i] = 7 + scale*r.Range(-1, 1)
				}
			}
			epochs := gc.Recomputes()
			gc.observe(g, vals)
			if gc.Recomputes() > epochs {
				folds++
			}
			dm := dyngraph.NewDistanceMatrix(n)
			dm.Update(g)
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if d := int(dm.Row(u)[v]); d > 0 {
						if diff := math.Abs(vals[u] - vals[v]); diff > want[d] {
							want[d], wantMax = diff, max(wantMax, d)
						}
					}
				}
			}
			if gc.maxDist != wantMax {
				t.Fatalf("n=%d step %d: largest raised distance %d, scan %d", n, step, gc.maxDist, wantMax)
			}
			for d := range want {
				if math.Float64bits(gc.maxByDist[d]) != math.Float64bits(want[d]) {
					t.Fatalf("n=%d step %d: bucket %d = %v, scan %v", n, step, d, gc.maxByDist[d], want[d])
				}
			}
		}
		if folds < 10 || folds > 150 {
			t.Fatalf("n=%d: %d of 200 samples folded, want a mix of folds and scans", n, folds)
		}
	}
}

// TestGradientCheckNodeLimit: the checker keeps n² distances and names
// a pair in 32 bits, so Validate refuses it above 65 536 nodes.
func TestGradientCheckNodeLimit(t *testing.T) {
	cfg := Config{N: 1<<16 + 1, CheckGradient: true}
	if err := cfg.Validate(); err == nil {
		t.Fatal("Validate accepted gradient checking at 65 537 nodes")
	}
	cfg.CheckGradient = false
	if err := cfg.Validate(); err != nil {
		t.Fatalf("65 537 nodes without the checker: %v", err)
	}
}
