package sim

import (
	"fmt"
	"math"
	"testing"

	"gcs/internal/simtest"
)

// TestParallelSampleScanInvariance pins the shard-local sample
// reduction: forcing the concurrent scan (threshold below N, multiple
// workers) must reproduce, bit for bit, the serial left-to-right scan
// (threshold above N, workers=1) on static and churning topologies.
// The concurrent path is otherwise reachable only at N >=
// parallelSampleMinNodes, far above what a unit test wants to run.
func TestParallelSampleScanInvariance(t *testing.T) {
	defer func(old int) { parallelSampleMinNodes = old }(parallelSampleMinNodes)

	for name, base := range map[string]Config{
		"ring":  parallelRingConfig(96, 5),
		"churn": parallelChurnConfig(64, 4),
	} {
		t.Run(name, func(t *testing.T) {
			parallelSampleMinNodes = 1 << 30 // serial scan, regardless of workers
			ref := base
			ref.Workers = 1
			want := mustRun(t, ref)
			if want.Samples < 2 || want.MaxGlobalSkew <= 0 {
				t.Fatalf("degenerate reference run: %+v", want)
			}
			parallelSampleMinNodes = 1 // concurrent scan from the first sample
			for _, workers := range []int{2, 4} {
				cfg := base
				cfg.Workers = workers
				got := mustRun(t, cfg)
				simtest.AssertSameReport(t, fmt.Sprintf("concurrent scan workers=%d vs serial scan", workers), got, want)
			}
		})
	}
}

// TestObserveShardBlocks pins the block decomposition itself: the
// shard ranges tile [0, N) exactly, in index order. (Shards > N is
// clamped to N by WithDefaults before build sees it, so {3,5} exercises
// the clamp rather than empty blocks.)
func TestObserveShardBlocks(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{96, 5}, {7, 3}, {4, 4}, {3, 5},
	} {
		cfg := parallelRingConfig(tc.n, tc.shards)
		ps := NewParallel(cfg)
		shards := ps.P.NumShards()
		if got := len(ps.shardStart); got != shards+1 {
			t.Fatalf("n=%d shards=%d: len(shardStart) = %d, want %d", tc.n, tc.shards, got, shards+1)
		}
		if ps.shardStart[0] != 0 || int(ps.shardStart[shards]) != tc.n {
			t.Fatalf("n=%d shards=%d: blocks do not tile [0,n): %v", tc.n, tc.shards, ps.shardStart)
		}
		for s := 0; s < shards; s++ {
			if ps.shardStart[s] > ps.shardStart[s+1] {
				t.Fatalf("n=%d shards=%d: non-monotone blocks: %v", tc.n, tc.shards, ps.shardStart)
			}
			for i := ps.shardStart[s]; i < ps.shardStart[s+1]; i++ {
				if ps.shardOf[i] != int32(s) {
					t.Fatalf("n=%d shards=%d: node %d in block %d but shardOf=%d", tc.n, tc.shards, i, s, ps.shardOf[i])
				}
			}
		}
	}
}

// TestObserveScanAllDown pins the every-node-down corner under the
// concurrent scan: all blocks return +Inf/-Inf partials and the merged
// spread clamps to zero, exactly as the serial scan does.
func TestObserveScanAllDown(t *testing.T) {
	defer func(old int) { parallelSampleMinNodes = old }(parallelSampleMinNodes)
	parallelSampleMinNodes = 1

	cfg := parallelRingConfig(12, 3)
	ps := NewParallel(cfg)
	ps.runWorkers = 2
	ps.downMask = make([]bool, cfg.N)
	for i := range ps.downMask {
		ps.downMask[i] = true
	}
	lo, hi := ps.observeScan()
	if !math.IsInf(lo, 1) || !math.IsInf(hi, -1) {
		t.Fatalf("all-down scan: lo=%v hi=%v, want +Inf/-Inf", lo, hi)
	}
	for i, v := range ps.vals {
		if !math.IsNaN(v) {
			t.Fatalf("node %d not NaN-poisoned: %v", i, v)
		}
	}
}
