package sim

import (
	"testing"

	"gcs/internal/simtest"
)

// churnyConfig exercises every stochastic subsystem at once: seeded
// RandomWalk clock drivers, volatile churn, and uniform random
// message delays.
func churnyConfig(seed uint64) Config {
	return Config{
		N:        12,
		Seed:     seed,
		Horizon:  15,
		Rho:      0.02,
		MaxDelay: 0.02,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Churn: ChurnSpec{
			Kind:       ChurnVolatile,
			Lifetime:   1.5,
			Absence:    1.0,
			ExtraEdges: 10,
		},
	}
}

func TestSameSeedSameExecution(t *testing.T) {
	a := mustRun(t, churnyConfig(42))
	b := mustRun(t, churnyConfig(42))
	simtest.AssertSameReport(t, "same-seed rerun", b, a)
	if a.EventsExecuted == 0 || a.Transport.Delivered == 0 {
		t.Fatalf("degenerate execution: %+v", a)
	}
	if a.EdgeAdds == 0 || a.EdgeRemoves == 0 {
		t.Fatalf("churn never fired: %+v", a)
	}
}

func TestDifferentSeedDifferentExecution(t *testing.T) {
	a := mustRun(t, churnyConfig(1))
	b := mustRun(t, churnyConfig(2))
	// Seeds drive delays, churn, drift, and beacon phases; two executions
	// agreeing on every counter would mean the seed is ignored.
	simtest.AssertReportsDiffer(t, "seed 1 vs seed 2", a, b)
}
