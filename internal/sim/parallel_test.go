package sim

import (
	"fmt"
	"math"
	"testing"

	"gcs/internal/dyngraph"
	"gcs/internal/simtest"
	"gcs/internal/transport"
)

func parallelRingConfig(n, shards int) Config {
	return Config{
		N: n, Seed: 7, Horizon: 5, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
		Parallel: true,
		Shards:   shards,
	}
}

func parallelChurnConfig(n, shards int) Config {
	cfg := parallelRingConfig(n, shards)
	cfg.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: 1, Absence: 0.5, ExtraEdges: 24}
	return cfg
}

// TestShardedWorkerInvariance is the parallel determinism contract:
// the report is a pure function of the Config, and the worker count is
// invisible — every worker count reproduces the workers=1 serial
// reference bit for bit, on static and churning topologies alike.
func TestShardedWorkerInvariance(t *testing.T) {
	star := parallelRingConfig(24, 4)
	star.Churn = ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25}
	for name, base := range map[string]Config{
		"ring":  parallelRingConfig(96, 5),
		"churn": parallelChurnConfig(64, 4),
		// The rotating star is the maximally dynamic pattern: every edge
		// is hub-incident, so almost all traffic crosses shards and every
		// rotation runs a burst of global-phase discovery beacons.
		"star": star,
	} {
		t.Run(name, func(t *testing.T) {
			ref := base
			ref.Workers = 1
			want := mustRun(t, ref)
			if want.Transport.Delivered == 0 || want.Samples < 2 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			for _, workers := range []int{2, 4} {
				cfg := base
				cfg.Workers = workers
				got := mustRun(t, cfg)
				simtest.AssertSameReport(t, fmt.Sprintf("workers=%d vs serial reference", workers), got, want)
			}
		})
	}
}

// TestSerialAndShardedShareDelayLaw pins the one delay law: the serial
// engine (no delay floor) and the sharded one (floor MinDelay) draw the
// same sequence from every sender's stream, each delay the same fraction
// of its (floor, MaxDelay] range. Each harness's delay law is wrapped to
// log every draw under its sender; a sender draws in its own send order,
// so each log is a send-ordered sequence, and the two harnesses are
// compared over their common prefix.
func TestSerialAndShardedShareDelayLaw(t *testing.T) {
	cfg := parallelRingConfig(24, 4)
	cfg.MinDelay, cfg.Workers = 0.002, 1
	serial := cfg
	serial.Parallel, serial.Shards, serial.MinDelay = false, 0, 0

	// record reinstalls c's delay law, logging each draw as a fraction of
	// (floor, MaxDelay]; nothing is in flight before Run.
	record := func(c *Simulation, floor float64) [][]float64 {
		got := make([][]float64, c.Cfg.N)
		c.Net.Reset(func(m *transport.Message) float64 {
			d := c.delayFn(m)
			got[m.From] = append(got[m.From], (d-floor)/(c.Cfg.MaxDelay-floor))
			return d
		}, c.Cfg.MaxDelay)
		return got
	}
	s := New(serial)
	fromSerial := record(s, 0)
	s.Run()
	ps := New(cfg)
	fromSharded := record(ps, cfg.MinDelay)
	ps.Run()

	for u := range fromSerial {
		a, b := fromSerial[u], fromSharded[u]
		n := min(len(a), len(b))
		if n < 50 {
			t.Fatalf("sender %d: only %d comparable sends (serial %d, sharded %d)", u, n, len(a), len(b))
		}
		for k := 0; k < n; k++ {
			// Each fraction is (1 - f) for the stream's draw f, up to the
			// rounding of floor + range*(1-f) and its inverse (measured
			// worst 2.2e-16); a different draw differs by orders of
			// magnitude more.
			if math.Abs(a[k]-b[k]) > 1e-14 {
				t.Fatalf("sender %d, send %d: serial delay %v, sharded %v", u, k, a[k], b[k])
			}
		}
	}
}

// TestShardedSeedSensitivity pins same-seed reproducibility and that
// the seed actually steers the execution.
func TestShardedSeedSensitivity(t *testing.T) {
	cfg := parallelRingConfig(64, 4)
	first := mustRun(t, cfg)
	simtest.AssertSameReport(t, "same-config rerun", mustRun(t, cfg), first)
	other := cfg
	other.Seed = 99
	if got := mustRun(t, other); got.MaxGlobalSkew == first.MaxGlobalSkew &&
		got.Transport.Sent == first.Transport.Sent {
		t.Fatal("different seeds produced an identical execution")
	}
}

// TestShardedArenaReuse pins arena-style reuse: re-running a config
// through one Arena — including across an intervening run of a different
// shard shape, which forces a full rebuild — reproduces the fresh run
// bit for bit.
func TestShardedArenaReuse(t *testing.T) {
	cfgA := parallelChurnConfig(64, 4)
	cfgB := parallelRingConfig(96, 6)
	want := mustRun(t, cfgA)
	a := NewArena()
	simtest.AssertSameReport(t, "arena first run vs fresh", a.Run(cfgA), want)
	simtest.AssertSameReport(t, "arena shape-change run vs fresh", a.Run(cfgB), mustRun(t, cfgB))
	simtest.AssertSameReport(t, "arena re-run after shape change vs fresh", a.Run(cfgA), want)
}

// TestShardedPhysics sanity-checks the parallel execution as a
// simulation: skew within the analytic bound, drift within [1-rho,
// 1+rho], value conservation (everything sent is delivered, dropped, or
// still in flight at the horizon), and genuine cross-shard pipelining
// (windows executed, traffic crossed shards).
func TestShardedPhysics(t *testing.T) {
	cfg := parallelChurnConfig(96, 6)
	ps := New(cfg)
	rpt := ps.Run()
	eff := cfg.WithDefaults()
	if rpt.MaxGlobalSkew > rpt.Bound {
		t.Errorf("global skew %v exceeds analytic bound %v", rpt.MaxGlobalSkew, rpt.Bound)
	}
	if rpt.MinRateSeen < 1-eff.Rho || rpt.MaxRateSeen > 1+eff.Rho {
		t.Errorf("rates [%v, %v] escape [%v, %v]",
			rpt.MinRateSeen, rpt.MaxRateSeen, 1-eff.Rho, 1+eff.Rho)
	}
	if rpt.Transport.Delivered+rpt.Transport.Dropped > rpt.Transport.Sent {
		t.Errorf("conservation violated: sent=%d delivered=%d dropped=%d",
			rpt.Transport.Sent, rpt.Transport.Delivered, rpt.Transport.Dropped)
	}
	if rpt.Transport.Delivered == 0 || rpt.TotalBeacons == 0 || rpt.EdgeAdds == 0 {
		t.Errorf("degenerate run: %+v", rpt)
	}
	if ps.P.Windows() == 0 {
		t.Error("no parallel windows executed")
	}
	// One sample per period plus t=0, plus possibly one extra when
	// accumulated float periods land just short of the horizon (the same
	// fencepost the serial sampler has).
	minSamples := int(eff.Horizon/eff.SampleEvery) + 1
	if rpt.Samples < minSamples || rpt.Samples > minSamples+1 {
		t.Errorf("samples = %d, want %d or %d", rpt.Samples, minSamples, minSamples+1)
	}
	// Block partitioning a ring leaves exactly one boundary edge per
	// shard pair; beacons over them must have crossed shards.
	crossed := false
	for s := 0; s < ps.P.NumShards(); s++ {
		if ps.P.Shard(s).Executed() == 0 {
			t.Errorf("shard %d executed no events", s)
		}
	}
	for i := 1; i < cfg.N; i++ {
		if ps.shardOf[i] != ps.shardOf[i-1] {
			crossed = true
		}
	}
	if !crossed {
		t.Fatal("partition degenerated to a single shard")
	}
}

// TestShardedGradientCheck runs the exact gradient checker on the
// parallel harness: the global-phase barrier makes every sample a
// consistent cut, so on a static ring every bucket from 1 to the
// diameter n/2 fills, each within GradientBound(d).
func TestShardedGradientCheck(t *testing.T) {
	cfg := parallelRingConfig(64, 4)
	cfg.CheckGradient = true
	rpt := mustRun(t, cfg)
	if rpt.DistanceRecomputes != 1 {
		t.Fatalf("static ring recomputed distances %d times, want 1", rpt.DistanceRecomputes)
	}
	if got := len(rpt.PerDistanceSkew) - 1; got != cfg.N/2 {
		t.Fatalf("buckets reach distance %d, want the ring's diameter %d", got, cfg.N/2)
	}
	for d := 1; d < len(rpt.PerDistanceSkew); d++ {
		if rpt.PerDistanceSkew[d] <= 0 {
			t.Fatalf("empty bucket at distance %d on a static ring", d)
		}
		if rpt.PerDistanceSkew[d] > cfg.GradientBound(d) {
			t.Fatalf("bucket %d = %v above GradientBound %v", d, rpt.PerDistanceSkew[d], cfg.GradientBound(d))
		}
	}
}

// bfsDiameter is the reference the closed-form diameters are pinned
// against: the largest hop distance over an all-source BFS of a
// connected static graph.
func bfsDiameter(n int, edges []dyngraph.Edge) int {
	adj := dyngraph.Adjacency(n, edges)
	diam := 0
	for src := range n {
		dist := make([]int, n)
		for i := range dist {
			dist[i] = -1
		}
		dist[src] = 0
		for queue := []int{src}; len(queue) > 0; queue = queue[1:] {
			u := queue[0]
			diam = max(diam, dist[u])
			for _, v := range adj[u] {
				if dist[v] < 0 {
					dist[v] = dist[u] + 1
					queue = append(queue, v)
				}
			}
		}
	}
	return diam
}

// TestTopologyDiameterClosedForm pins the closed-form diameters used by
// the analytic bound against an all-source BFS, across the topologies
// and sizes (the closed forms exist so Ring100k does not pay an O(n²)
// sweep per bound evaluation).
func TestTopologyDiameterClosedForm(t *testing.T) {
	for _, tc := range []struct {
		spec TopologySpec
		minN int
	}{
		{TopologySpec{Kind: TopoLine}, 1},
		{TopologySpec{Kind: TopoRing}, 3}, // dyngraph.Ring needs n >= 3
		{TopologySpec{Kind: TopoStar}, 1},
		{TopologySpec{Kind: TopoComplete}, 1},
		{TopologySpec{Kind: TopoTwoChains}, 4}, // dyngraph.NewTwoChains needs n >= 4
	} {
		for n := tc.minN; n <= 33; n++ {
			want := bfsDiameter(n, tc.spec.Edges(n))
			if got := tc.spec.diameter(n); got != want {
				t.Errorf("%v n=%d: closed form %d, BFS %d", tc.spec.Kind, n, got, want)
			}
		}
	}
	for _, wh := range [][2]int{{1, 1}, {1, 7}, {4, 4}, {3, 8}, {6, 5}} {
		spec := TopologySpec{Kind: TopoGrid, W: wh[0], H: wh[1]}
		n := wh[0] * wh[1]
		want := bfsDiameter(n, spec.Edges(n))
		if got := spec.diameter(n); got != want {
			t.Errorf("grid %dx%d: closed form %d, BFS %d", wh[0], wh[1], got, want)
		}
	}
}
