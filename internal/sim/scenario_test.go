package sim

import (
	"fmt"
	"testing"

	"gcs/internal/dyngraph"
)

// assertSkewInvariants checks the properties every legal execution must
// satisfy: the observed global skew stays below the analytic bound and
// every hardware clock ran within the drift envelope.
func assertSkewInvariants(t *testing.T, cfg Config, rpt SkewReport) {
	t.Helper()
	cfg = cfg.WithDefaults()
	if rpt.MaxGlobalSkew > rpt.Bound {
		t.Errorf("max global skew %v exceeds analytic bound %v", rpt.MaxGlobalSkew, rpt.Bound)
	}
	if rpt.MaxGlobalSkew <= 0 && cfg.Rho > 0 {
		t.Error("zero skew with drifting clocks: simulation degenerate")
	}
	if rpt.MaxAdjacentSkew > rpt.MaxGlobalSkew+1e-12 {
		t.Errorf("adjacent skew %v exceeds global skew %v", rpt.MaxAdjacentSkew, rpt.MaxGlobalSkew)
	}
	const eps = 1e-12
	if rpt.MinRateSeen < 1-cfg.Rho-eps || rpt.MaxRateSeen > 1+cfg.Rho+eps {
		t.Errorf("hardware rates [%v, %v] escaped [1-rho, 1+rho] = [%v, %v]",
			rpt.MinRateSeen, rpt.MaxRateSeen, 1-cfg.Rho, 1+cfg.Rho)
	}
	if rpt.Transport.Delivered == 0 {
		t.Error("no messages delivered: nodes never communicated")
	}
	if rpt.TotalBeacons == 0 {
		t.Error("no beacons emitted")
	}
}

// TestSkewInvariantMatrix sweeps topology x driver scenarios and asserts
// the skew invariants for each. This is the test-archetype core: the
// bound must hold regardless of which legal adversary drives the drift.
func TestSkewInvariantMatrix(t *testing.T) {
	topologies := []struct {
		name string
		n    int
		spec TopologySpec
		ch   ChurnSpec
	}{
		{"Line", 16, TopologySpec{Kind: TopoLine}, ChurnSpec{}},
		{"Ring", 16, TopologySpec{Kind: TopoRing}, ChurnSpec{}},
		{"Grid", 16, TopologySpec{Kind: TopoGrid, W: 4, H: 4}, ChurnSpec{}},
		{"RotatingStar", 16, TopologySpec{}, ChurnSpec{
			Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25,
		}},
	}
	drivers := []struct {
		name string
		spec DriverSpec
	}{
		{"BangBang", DriverSpec{Kind: DriveBangBang, Interval: 0.7}},
		{"RandomWalk", DriverSpec{Kind: DriveRandomWalk, Interval: 0.5}},
	}
	for _, topo := range topologies {
		for _, drv := range drivers {
			t.Run(fmt.Sprintf("%s/%s", topo.name, drv.name), func(t *testing.T) {
				cfg := Config{
					N:        topo.n,
					Seed:     7,
					Horizon:  30,
					Rho:      0.01,
					MaxDelay: 0.01,
					Topology: topo.spec,
					Driver:   drv.spec,
					Churn:    topo.ch,
				}
				rpt := mustRun(t, cfg)
				assertSkewInvariants(t, cfg, rpt)
			})
		}
	}
}

// TestRotatingStar64 is the acceptance scenario: 64 nodes, horizon 100s,
// maximally dynamic topology, finite skew below the analytic bound.
func TestRotatingStar64(t *testing.T) {
	cfg := Config{
		N:        64,
		Seed:     2009,
		Horizon:  100,
		Rho:      0.01,
		MaxDelay: 0.01,
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
		Churn:    ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5},
	}
	rpt := mustRun(t, cfg)
	assertSkewInvariants(t, cfg, rpt)
	if rpt.EdgeAdds == 0 || rpt.EdgeRemoves == 0 {
		t.Fatalf("star never rotated: %+v", rpt)
	}
	// The rotating star drops beacons in flight at every teardown; the
	// transport must have recorded real losses without breaking the bound.
	if rpt.Transport.Dropped == 0 {
		t.Errorf("expected in-flight drops under star churn, got none (sent=%d)", rpt.Transport.Sent)
	}
	t.Logf("64-node rotating star: maxGlobal=%.4f maxAdjacent=%.4f bound=%.4f sent=%d dropped=%d",
		rpt.MaxGlobalSkew, rpt.MaxAdjacentSkew, rpt.Bound, rpt.Transport.Sent, rpt.Transport.Dropped)
}

// TestTrafficConservedUnderChurn runs the hub-heavy and churn-heavy
// scenarios — the ones that lose messages in flight — and asserts each
// satisfies the skew invariants and conserves traffic accounting: once
// every flight has ended, every sent message was delivered or dropped.
func TestTrafficConservedUnderChurn(t *testing.T) {
	for _, cfg := range []Config{
		{
			N: 24, Seed: 6, Horizon: 20, Rho: 0.01, MaxDelay: 0.01,
			Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
			Churn:  ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25},
		},
		churnyConfig(21),
	} {
		s := New(cfg)
		rpt := s.Run()
		assertSkewInvariants(t, cfg, rpt)
		if rpt.Transport.Dropped == 0 {
			t.Fatalf("no message lost in flight; scenario degenerate: %+v", rpt.Transport)
		}
		// Messages in flight at the horizon are neither delivered nor
		// dropped yet. Silence the senders (a crashed node neither beacons
		// nor answers a fresh edge) and let the last flights end.
		for _, nd := range s.Nodes {
			nd.Crash()
		}
		s.Engine.Run(s.Cfg.Horizon + s.Cfg.MaxDelay)
		if ts := s.Net.Stats(); ts.Sent != rpt.Transport.Sent || ts.Sent != ts.Delivered+ts.Dropped {
			t.Fatalf("traffic not conserved: %+v (sent %d at the horizon)", ts, rpt.Transport.Sent)
		}
	}
}

// TestVolatileChurnStaysIntervalConnected pins Definition 3.1 with the
// dyngraph verifier. Volatile churn keeps a static backbone, so it is
// T-interval connected for any T on both DES harnesses. The rotating
// star is T-interval connected for T = Overlap, when one complete star
// spans every window, but not for T = Period: a window that starts after
// a removal and ends past the next one holds no complete star.
func TestVolatileChurnStaysIntervalConnected(t *testing.T) {
	sharded := churnyConfig(11)
	sharded.Parallel, sharded.Shards, sharded.Workers = true, 4, 1
	star := Config{
		N: 16, Seed: 3, Horizon: 20, Rho: 0.01, MaxDelay: 0.01,
		Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 1},
		Churn:  ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5},
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		T      float64
		wantOK bool
	}{
		{"volatile serial", churnyConfig(11), 1, true},
		{"volatile sharded", sharded, 1, true},
		{"rotating star T=Overlap", star, 0.5, true},
		{"rotating star T=Period", star, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g *dyngraph.Dynamic
			var rpt SkewReport
			if tc.cfg.Parallel {
				ps := NewParallel(tc.cfg)
				rpt, g = ps.Run(), ps.Graph
			} else {
				s := New(tc.cfg)
				rpt, g = s.Run(), s.Graph
			}
			assertSkewInvariants(t, tc.cfg, rpt)
			if rpt.EdgeAdds == 0 || rpt.EdgeRemoves == 0 {
				t.Fatalf("no churn: adds=%d removes=%d", rpt.EdgeAdds, rpt.EdgeRemoves)
			}
			if at, ok := g.VerifyIntervalConnectivity(tc.T, tc.cfg.Horizon); ok != tc.wantOK {
				t.Fatalf("%v-interval connected = %v (first violating window at %v), want %v", tc.T, ok, at, tc.wantOK)
			}
		})
	}
}

// TestGradientRegimeLine runs the line with jumps disabled above a high
// threshold so catch-up flows through the fast rate, exercising the
// gradient machinery end to end.
func TestGradientRegimeLine(t *testing.T) {
	cfg := Config{
		N:        8,
		Seed:     5,
		Horizon:  30,
		Rho:      0.02,
		MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoLine},
		Driver:   DriverSpec{Kind: DriveBangBang, Interval: 2},
	}
	cfg.Node.Kappa = 0.05
	cfg.Node.Mu = 1
	cfg.Node.JumpThreshold = 0.2
	rpt := mustRun(t, cfg)
	assertSkewInvariants(t, cfg, rpt)
}
