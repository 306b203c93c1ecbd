package sim

import (
	"math"
	"reflect"
	"testing"
)

// runWithSeries runs cfg on the arena and returns the report with a
// copy of the run's skew series.
func runWithSeries(a *Arena, cfg Config) (SkewReport, []SkewPoint) {
	s := a.Sim(cfg)
	rpt := s.Run()
	return rpt, append([]SkewPoint(nil), s.series...)
}

// seriesConfigs are the two DES harnesses the series tests run on.
func seriesConfigs() map[string]Config {
	return map[string]Config{
		"serial":  arenaConfigs()[0],
		"sharded": parallelChurnConfig(64, 4),
	}
}

// checkSeriesMatchesReport fails t unless the series holds exactly one
// point per counted sample, from t = 0 to the horizon in time order, its
// largest spread is MaxGlobalSkew bit for bit and its last point's
// spread is FinalGlobalSkew.
func checkSeriesMatchesReport(t *testing.T, run string, cfg Config, rpt SkewReport, series []SkewPoint) {
	t.Helper()
	if len(series) != rpt.Samples || rpt.Samples < 2 {
		t.Fatalf("%s: series holds %d points, report counted %d samples", run, len(series), rpt.Samples)
	}
	if series[0].T != 0 || series[len(series)-1].T != cfg.Horizon {
		t.Fatalf("%s: series spans [%v, %v], want [0, %v]", run, series[0].T, series[len(series)-1].T, cfg.Horizon)
	}
	maxSpread := 0.0
	for i, p := range series {
		if i > 0 && p.T <= series[i-1].T {
			t.Fatalf("%s: point %d at %v not after point %d at %v", run, i, p.T, i-1, series[i-1].T)
		}
		maxSpread = max(maxSpread, p.Hi-p.Lo)
	}
	if maxSpread != rpt.MaxGlobalSkew {
		t.Fatalf("%s: series max spread %v != MaxGlobalSkew %v", run, maxSpread, rpt.MaxGlobalSkew)
	}
	if last := series[len(series)-1]; last.Hi-last.Lo != rpt.FinalGlobalSkew {
		t.Fatalf("%s: last spread %v != FinalGlobalSkew %v", run, last.Hi-last.Lo, rpt.FinalGlobalSkew)
	}
}

// TestSimulationTraceMatchesReport pins the one sample path on a fresh
// arena: on both DES harnesses the run's skew series agrees with its
// report (see checkSeriesMatchesReport).
func TestSimulationTraceMatchesReport(t *testing.T) {
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			rpt, series := runWithSeries(NewArena(), cfg)
			checkSeriesMatchesReport(t, "fresh", cfg, rpt, series)
		})
	}
}

// TestArenaTraceReuse pins the series on a reused arena: after a run of
// a different shape in between, both DES harnesses produce a series that
// still agrees with its report and equals the fresh arena's point for
// point.
func TestArenaTraceReuse(t *testing.T) {
	other := arenaConfigs()[2] // a different shape, rewired in between
	for name, cfg := range seriesConfigs() {
		t.Run(name, func(t *testing.T) {
			a := NewArena()
			_, fresh := runWithSeries(a, cfg)
			a.Run(other)
			rpt, series := runWithSeries(a, cfg)
			checkSeriesMatchesReport(t, "reused", cfg, rpt, series)
			if !reflect.DeepEqual(series, fresh) {
				t.Fatal("reused: series diverged from the fresh arena's")
			}
		})
	}
}

// TestParallelSampleScanInvariance pins that the sharded harness samples
// the same cut whatever executes its windows: the series, point for
// point, is identical for every worker count on static and churning
// topologies.
func TestParallelSampleScanInvariance(t *testing.T) {
	for name, base := range map[string]Config{
		"ring":  parallelRingConfig(96, 5),
		"churn": parallelChurnConfig(64, 4),
	} {
		t.Run(name, func(t *testing.T) {
			ref := base
			ref.Workers = 1
			_, want := runWithSeries(NewArena(), ref)
			for _, workers := range []int{2, 4} {
				cfg := base
				cfg.Workers = workers
				if _, got := runWithSeries(NewArena(), cfg); !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d: series diverged from workers=1", workers)
				}
			}
		})
	}
}

// TestObserveShardBlocks pins the block partition of the sharded
// harness: every shard owns one contiguous, nonempty run of nodes, the
// runs follow shard order, and together they tile [0, N). (Shards > N is
// clamped to N by WithDefaults before build sees it, so {3,5} exercises
// the clamp rather than empty blocks.)
func TestObserveShardBlocks(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{96, 5}, {7, 3}, {4, 4}, {3, 5},
	} {
		ps := New(parallelRingConfig(tc.n, tc.shards))
		if len(ps.shardOf) != tc.n || ps.shardOf[0] != 0 {
			t.Fatalf("n=%d shards=%d: partition does not start at shard 0: %v", tc.n, tc.shards, ps.shardOf)
		}
		for i := 1; i < tc.n; i++ {
			if step := ps.shardOf[i] - ps.shardOf[i-1]; step != 0 && step != 1 {
				t.Fatalf("n=%d shards=%d: node %d jumps from shard %d to %d", tc.n, tc.shards, i, ps.shardOf[i-1], ps.shardOf[i])
			}
		}
		if last := int(ps.shardOf[tc.n-1]); last != ps.P.NumShards()-1 {
			t.Fatalf("n=%d shards=%d: last node on shard %d of %d, so a shard owns no node", tc.n, tc.shards, last, ps.P.NumShards())
		}
	}
}

// TestObserveScanAllDown pins the every-node-down corner of the one
// sample path: the scan returns +Inf/-Inf extrema and NaN-poisons every
// value, the fold clamps the spread to zero, and the series point carries
// the same extrema.
func TestObserveScanAllDown(t *testing.T) {
	cfg := Config{N: 12, Seed: 3, Horizon: 1, Topology: TopologySpec{Kind: TopoRing}, CheckGradient: true}
	s := New(cfg)
	for _, nd := range s.Nodes {
		nd.Crash()
	}
	lo, hi := s.scan()
	if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Fatalf("all-down scan: lo=%v hi=%v, want +Inf/-Inf", lo, hi)
	}
	for i, v := range s.vals {
		if !math.IsNaN(v) {
			t.Fatalf("node %d not NaN-poisoned: %v", i, v)
		}
	}
	s.observe()
	if r := s.fold.Report; r.Samples != 1 || r.MaxGlobalSkew != 0 || r.FinalGlobalSkew != 0 || r.MaxAdjacentSkew != 0 {
		t.Fatalf("all-down sample folded a spread: %+v", r)
	}
	if s.gradient.maxDist != 0 {
		t.Fatalf("all-down sample filled gradient bucket %d", s.gradient.maxDist)
	}
	want := SkewPoint{T: 0, Lo: math.Inf(1), Hi: math.Inf(-1)}
	if len(s.series) != 1 || s.series[0] != want {
		t.Fatalf("series = %v, want [%v]", s.series, want)
	}
}
