package sim

import (
	"reflect"
	"testing"
)

func sweepGrid() []SweepCell {
	var cells []SweepCell
	topos := []struct {
		name string
		spec TopologySpec
		ch   ChurnSpec
	}{
		{"Ring", TopologySpec{Kind: TopoRing}, ChurnSpec{}},
		{"Line", TopologySpec{Kind: TopoLine}, ChurnSpec{}},
		{"Ring+Volatile", TopologySpec{Kind: TopoRing}, ChurnSpec{
			Kind: ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: 8,
		}},
		{"RotatingStar", TopologySpec{}, ChurnSpec{
			Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5,
		}},
	}
	drivers := []DriverSpec{
		{Kind: DriveRandomWalk, Interval: 0.5},
		{Kind: DriveBangBang, Interval: 0.7},
	}
	for _, n := range []int{12, 20} {
		for _, topo := range topos {
			for _, drv := range drivers {
				cells = append(cells, SweepCell{
					Name: topo.name,
					Cfg: Config{
						N: n, Seed: CellSeed(1, len(cells)), Horizon: 8,
						Rho: 0.01, MaxDelay: 0.01,
						Topology: topo.spec, Driver: drv, Churn: topo.ch,
					},
				})
			}
		}
	}
	return cells
}

// TestSweepParallelBitIdentical is the parallel-sweep acceptance pin:
// fanning a grid across workers must produce results bit-identical to
// the serial (workers = 1) order. The plain grid runs at several worker
// counts, more workers than cells included; each experiment kind's grid
// runs at 1 and 4 workers and is compared row by row: table line, CSV
// (the lower bound's skew series), JSON row and gate.
func TestSweepParallelBitIdentical(t *testing.T) {
	cells := sweepGrid()
	serial := mustSweep(t, cells, 1)
	for _, workers := range []int{2, 4, len(cells) + 7} {
		par := mustSweep(t, cells, workers)
		if !reflect.DeepEqual(serial, par) {
			t.Fatalf("workers=%d: parallel sweep diverged from serial order", workers)
		}
	}
	for _, kind := range []struct {
		name string
		e    Experiment
	}{
		{"sweep", SweepExperiment(cells)},
		{"gradient", GradientExperiment(Config{N: 12, Seed: 1, Horizon: 3})},
		{"chaos", ChaosExperiment(12, 1, 4, false)},
		{"lowerbound", LowerBoundExperiment(lowerBoundBase(1), []int{24, 12, 16})},
	} {
		serial, par := mustExperiment(t, kind.e, 1), mustExperiment(t, kind.e, 4)
		for i := range serial {
			if !reflect.DeepEqual(serial[i], par[i]) {
				t.Errorf("%s cell %d (%s): 4 workers diverged from serial order:\n  serial = %+v\n  4      = %+v",
					kind.name, i, kind.e.Cells[i].Name, serial[i], par[i])
			}
		}
	}
}

// TestSweepMatchesDirectRuns anchors the sweep runner to the plain Run
// path: each cell's report must equal an independently wired Run of the
// same config.
func TestSweepMatchesDirectRuns(t *testing.T) {
	cells := sweepGrid()[:6]
	results := mustSweep(t, cells, 3)
	for i, res := range results {
		want := mustRun(t, cells[i].Cfg)
		if !reflect.DeepEqual(res.Report, want) {
			t.Fatalf("cell %d (%s): sweep report diverged from direct run:\n  sweep = %+v\n  direct = %+v",
				i, res.Name, res.Report, want)
		}
		if res.Cfg != cells[i].Cfg.WithDefaults() {
			t.Fatalf("cell %d: result config not defaulted", i)
		}
	}
}

// TestSweepEmptyAndSingle covers the degenerate grids.
func TestSweepEmptyAndSingle(t *testing.T) {
	if got := mustSweep(t, nil, 4); len(got) != 0 {
		t.Fatalf("empty sweep returned %d results", len(got))
	}
	cells := sweepGrid()[:1]
	got := mustSweep(t, cells, 8)
	if len(got) != 1 || got[0].Report.EventsExecuted == 0 {
		t.Fatalf("single-cell sweep degenerate: %+v", got)
	}
}

// TestCellSeedDistinct guards the per-cell seed derivation: distinct
// indices must get distinct seeds (a collision would silently correlate
// two grid cells).
func TestCellSeedDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 4096; i++ {
		s := CellSeed(42, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("CellSeed collision: indices %d and %d both map to %d", prev, i, s)
		}
		seen[s] = i
	}
}
