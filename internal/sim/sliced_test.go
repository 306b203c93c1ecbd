package sim

import (
	"fmt"
	"reflect"
	"testing"

	"gcs/internal/simtest"
)

// TestArenaRunSlicedBitIdentical: slicing only changes where the engine
// pauses between events, never what it executes — a sliced cell's
// report is bit-identical to an unsliced run. The sweep service runs
// every cell through this seam, so resumed jobs stay comparable to
// uninterrupted ones.
func TestArenaRunSlicedBitIdentical(t *testing.T) {
	cfg := churnyConfig(11)
	want := mustRun(t, cfg)
	a := NewArena()
	calls := 0
	got, ok := a.RunSliced(cfg, 0.7, func() bool { calls++; return true })
	if !ok {
		t.Fatal("RunSliced abandoned a run whose cont always allowed it")
	}
	if calls < 2 {
		t.Fatalf("cont consulted %d times; slicing is not happening", calls)
	}
	simtest.AssertSameReport(t, "sliced vs plain run", got, want)
}

// TestArenaRunSlicedParallel: sharded cells slice like serial ones. At
// every slice length cont is consulted between slices and the completed
// report is bit-identical to Run's, on a static ring, a faulted volatile
// grid and a rotating star; a false cont abandons a sharded cell
// mid-run.
func TestArenaRunSlicedParallel(t *testing.T) {
	ring := Config{N: 48, Seed: 5, Horizon: 4, Topology: TopologySpec{Kind: TopoRing},
		Parallel: true, Shards: 4, Workers: 2}
	grid := Config{N: 24, Seed: 10, Horizon: 4, Topology: TopologySpec{Kind: TopoGrid, W: 6, H: 4},
		Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Churn:  ChurnSpec{Kind: ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: 16},
		Faults: chaosPlan(t, "all"), Parallel: true, Shards: 3, Workers: 2}
	star := Config{N: 20, Seed: 6, Horizon: 4,
		Churn:    ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5},
		Parallel: true, Shards: 3, Workers: 2}
	a := NewArena()
	for name, cfg := range map[string]Config{"ring": ring, "faulted volatile grid": grid, "rotating star": star} {
		want := mustRun(t, cfg)
		for _, slice := range []float64{0.013, 0.1, 0.37, 1} {
			calls := 0
			got, ok := a.RunSliced(cfg, slice, func() bool { calls++; return true })
			if !ok {
				t.Fatalf("%s, slice %v: RunSliced abandoned a run whose cont allowed it", name, slice)
			}
			if calls < 2 {
				t.Fatalf("%s, slice %v: cont consulted %d times; the sharded cell was not sliced", name, slice, calls)
			}
			simtest.AssertSameReport(t, fmt.Sprintf("%s, slice %v: sliced vs plain run", name, slice), got, want)
		}
		calls := 0
		if rpt, ok := a.RunSliced(cfg, 0.5, func() bool { calls++; return calls < 3 }); ok || calls != 3 ||
			!reflect.DeepEqual(rpt, SkewReport{}) {
			t.Fatalf("%s: abandon on the 3rd cont call gave ok=%v after %d calls", name, ok, calls)
		}
	}
}

// TestArenaRunSlicedAbandon: a false cont abandons the cell with a
// zero report, and the arena remains fully reusable — the next run is
// bit-identical to a fresh one, which is what lets a draining daemon
// abandon in-flight cells and re-run them after restart.
func TestArenaRunSlicedAbandon(t *testing.T) {
	cfg := churnyConfig(11)
	a := NewArena()
	budget := 2
	rpt, ok := a.RunSliced(cfg, 0.5, func() bool { budget--; return budget >= 0 })
	if ok {
		t.Fatal("RunSliced completed a run its cont abandoned")
	}
	if !reflect.DeepEqual(rpt, SkewReport{}) {
		t.Fatalf("abandoned run leaked a partial report: %+v", rpt)
	}
	got, ok := a.RunSliced(cfg, 0.5, func() bool { return true })
	if !ok {
		t.Fatal("arena run after abandonment did not complete")
	}
	simtest.AssertSameReport(t, "post-abandon rerun vs fresh run", got, mustRun(t, cfg))
}
