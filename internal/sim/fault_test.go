package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"gcs/internal/simtest"
)

// faultedChurnConfig layers every fault kind on top of the maximally
// stochastic serial scenario.
func faultedChurnConfig(seed uint64) Config {
	cfg := churnyConfig(seed)
	cfg.Faults = FaultSpec{
		Drop: 0.1, Dup: 0.05, DelaySpike: 0.1,
		CrashEvery: 5, CrashDowntime: 0.5,
		RateExcursionEvery: 5,
	}
	return cfg
}

// faultedParallelConfig is the parallel counterpart.
func faultedParallelConfig(n, shards int) Config {
	cfg := parallelChurnConfig(n, shards)
	cfg.Faults = FaultSpec{
		Drop: 0.1, Dup: 0.05, DelaySpike: 0.1,
		CrashEvery: 2, CrashDowntime: 0.3,
		RateExcursionEvery: 2,
	}
	return cfg
}

// TestRunReturnsErrorsNotPanics is the harness-boundary contract: every
// malformed config is rejected by Validate with a descriptive error
// before anything is wired, and never as a panic.
func TestRunReturnsErrorsNotPanics(t *testing.T) {
	valid := churnyConfig(1)
	for name, mut := range map[string]func(*Config){
		"zeroN":           func(c *Config) { c.N = 0 },
		"negativeN":       func(c *Config) { c.N = -3 },
		"nanHorizon":      func(c *Config) { c.Horizon = math.NaN() },
		"rhoTooBig":       func(c *Config) { c.Rho = 1 },
		"rhoNaN":          func(c *Config) { c.Rho = math.NaN() },
		"negativeDelay":   func(c *Config) { c.MaxDelay = -0.1 },
		"gridMismatch":    func(c *Config) { c.Topology = TopologySpec{Kind: TopoGrid, W: 5, H: 5} },
		"ringTooSmall":    func(c *Config) { c.N = 2; c.Topology.Kind = TopoRing; c.Churn = ChurnSpec{} },
		"chainsTooSmall":  func(c *Config) { c.N = 3; c.Topology.Kind = TopoTwoChains; c.Churn = ChurnSpec{} },
		"unknownTopo":     func(c *Config) { c.Topology.Kind = TopologyKind(99) },
		"unknownDriver":   func(c *Config) { c.Driver.Kind = DriverKind(99) },
		"driverInterval":  func(c *Config) { c.Driver = DriverSpec{Kind: DriveRandomWalk, Interval: -1} },
		"unknownChurn":    func(c *Config) { c.Churn.Kind = ChurnKind(99) },
		"churnLifetime":   func(c *Config) { c.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: -1, Absence: 1} },
		"negativeShards":  func(c *Config) { c.Shards = -2 },
		"minDelayTooBig":  func(c *Config) { c.Parallel = true; c.MinDelay = c.MaxDelay * 2 },
		"beaconNegative":  func(c *Config) { c.Node.BeaconEvery = -1 },
		"faultDropRange":  func(c *Config) { c.Faults.Drop = 1.5 },
		"faultUntilRange": func(c *Config) { c.Faults = FaultSpec{Drop: 0.1, Until: c.Horizon * 2} },
	} {
		cfg := valid
		mut(&cfg)
		rpt, err := runValidated(cfg) // must not panic
		if err == nil {
			t.Errorf("%s: Run accepted a malformed config", name)
		}
		if !reflect.DeepEqual(rpt, SkewReport{}) {
			t.Errorf("%s: non-zero report alongside error", name)
		}
	}
}

// TestRunSweepSurfacesPerCellErrors: a malformed cell fails only
// itself — the error is surfaced on that cell (and joined into the
// aggregate error) while every valid sibling still runs and reports
// identically to a solo run. One bad cell must not discard its
// siblings; a sweep service depends on this seam.
func TestRunSweepSurfacesPerCellErrors(t *testing.T) {
	bad := churnyConfig(2)
	bad.Rho = 2
	cells := []SweepCell{
		{Name: "good", Cfg: churnyConfig(1)},
		{Name: "bad", Cfg: bad},
	}
	out, err := RunSweep(cells, 2)
	if err == nil {
		t.Fatal("RunSweep returned nil aggregate error despite a malformed cell")
	}
	if len(out) != 2 {
		t.Fatalf("got %d results, want 2", len(out))
	}
	if out[0].Err != nil {
		t.Fatalf("valid sibling failed: %v", out[0].Err)
	}
	if out[1].Err == nil {
		t.Fatal("malformed cell carries no error")
	}
	if !reflect.DeepEqual(out[1].Report, SkewReport{}) {
		t.Fatalf("malformed cell has a non-zero report: %+v", out[1].Report)
	}
	solo := mustRun(t, churnyConfig(1))
	simtest.AssertSameReport(t, "sibling vs solo run", out[0].Report, solo)
}

// TestFaultedRunDeterministic: a fully faulted serial run is
// bit-identical across reruns, actually injects every fault kind, and
// re-converges.
func TestFaultedRunDeterministic(t *testing.T) {
	a := mustRun(t, faultedChurnConfig(42))
	b := mustRun(t, faultedChurnConfig(42))
	simtest.AssertSameReport(t, "same-seed faulted rerun", b, a)
	fs := a.Faults
	if fs.Drops == 0 || fs.Dups == 0 || fs.DelaySpikes == 0 ||
		fs.Crashes == 0 || fs.Recoveries == 0 || fs.RateExcursions == 0 {
		t.Fatalf("some fault kind never fired: %+v", fs)
	}
	if math.IsInf(a.ReconvergenceTime, 1) {
		t.Fatal("faulted run never re-converged")
	}
	simtest.AssertReportsDiffer(t, "faulted seed 42 vs 43", a, mustRun(t, faultedChurnConfig(43)))
	// The plan steers the execution: the same seed without faults must
	// differ, and must report zero fault stats.
	plain := mustRun(t, churnyConfig(42))
	if plain.Faults.Total() != 0 || plain.ReconvergenceTime != 0 {
		t.Fatalf("unfaulted run reported faults: %+v", plain.Faults)
	}
	if plain.Transport.Sent == a.Transport.Sent && plain.MaxGlobalSkew == a.MaxGlobalSkew {
		t.Fatal("fault plan left no trace on the execution")
	}
}

// TestFaultSpecUntilOnlyIsInert pins the faults-are-physics wiring: a
// Spec that arms the subsystem but injects nothing (only Until set)
// must reproduce the unfaulted run bit for bit — forking the fault
// streams never perturbs any other stream.
func TestFaultSpecUntilOnlyIsInert(t *testing.T) {
	want := mustRun(t, churnyConfig(7))
	armed := churnyConfig(7)
	armed.Faults = FaultSpec{Until: 1}
	simtest.AssertSameReport(t, "armed-but-empty plan vs unfaulted", mustRun(t, armed), want)
}

// TestFaultedParallelWorkerInvariance extends the parallel determinism
// contract to faulted runs: drops, crashes, and excursions land
// identically for every worker count.
func TestFaultedParallelWorkerInvariance(t *testing.T) {
	base := faultedParallelConfig(64, 4)
	ref := base
	ref.Workers = 1
	want := mustRun(t, ref)
	if want.Faults.Total() == 0 || want.Faults.Crashes == 0 {
		t.Fatalf("degenerate faulted reference: %+v", want.Faults)
	}
	if math.IsInf(want.ReconvergenceTime, 1) {
		t.Fatal("faulted parallel run never re-converged")
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		got := mustRun(t, cfg)
		simtest.AssertSameReport(t, fmt.Sprintf("faulted workers=%d vs serial reference", workers), got, want)
	}
}

// TestParallelRecoverMidWindowWorkerInvariance pins the parallel
// engine's handling of a crash/recover cycle landing entirely inside one
// conservative window: the downtime is shorter than the MinDelay
// lookahead, so a node crashes, recovers, and emits its rejoin beacon
// within a single window, and the report must still be worker-invariant
// with the full cycle accounted.
func TestParallelRecoverMidWindowWorkerInvariance(t *testing.T) {
	base := parallelRingConfig(64, 4)
	base.Faults = FaultSpec{CrashEvery: 1.5, CrashDowntime: 0.001}
	if eff := base.WithDefaults(); base.Faults.CrashDowntime >= eff.MinDelay {
		t.Fatalf("premise broken: downtime %v not inside the %v lookahead window",
			base.Faults.CrashDowntime, eff.MinDelay)
	}
	ref := base
	ref.Workers = 1
	want := mustRun(t, ref)
	if want.Faults.Crashes == 0 || want.Faults.Recoveries == 0 {
		t.Fatalf("no crash/recover cycle fired: %+v", want.Faults)
	}
	if want.Faults.Crashes != want.Faults.Recoveries {
		t.Fatalf("sub-window downtimes must all recover before the horizon: %+v", want.Faults)
	}
	for _, workers := range []int{2, 4} {
		cfg := base
		cfg.Workers = workers
		got := mustRun(t, cfg)
		simtest.AssertSameReport(t, fmt.Sprintf("mid-window recovery workers=%d vs serial", workers), got, want)
	}
}

// TestFaultedArenaReuse: arena-reused faulted runs — including across
// an intervening unfaulted run, which must leave the grown fault pools
// disarmed — reproduce fresh runs bit for bit.
func TestFaultedArenaReuse(t *testing.T) {
	faulted := faultedChurnConfig(11)
	plain := churnyConfig(11)
	wantF := mustRun(t, faulted)
	wantP := mustRun(t, plain)
	a := NewArena()
	for i := 0; i < 2; i++ {
		simtest.AssertSameReport(t, fmt.Sprintf("arena faulted run %d vs fresh", i), a.Run(faulted), wantF)
		simtest.AssertSameReport(t, fmt.Sprintf("arena unfaulted run %d vs fresh (fault pools must not leak)", i),
			a.Run(plain), wantP)
	}
}

// TestFaultedParallelArenaReuse is the sharded counterpart, on the one
// scenario where a leaked plan shows: a rotating star sends discovery
// beacons while it is being wired at time 0, before the run's own plan
// is armed, so a message-fault plan left over from the arena's previous
// run would draw verdicts for them (the sharded harness did exactly that
// before it rewired through the harness core — `gcsim chaos -parallel`
// reported drops under the dup plan, depending on the worker count).
func TestFaultedParallelArenaReuse(t *testing.T) {
	star := Config{
		N: 16, Seed: 21, Horizon: 6,
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Churn:    ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25},
		Parallel: true, Shards: 3, Workers: 1,
	}
	drop, dup := star, star
	drop.Faults = FaultSpec{Drop: 0.25}
	dup.Faults = FaultSpec{Dup: 0.25}
	a := NewArena()
	for _, cfg := range []Config{drop, dup, star, drop} {
		simtest.AssertSameReport(t, fmt.Sprintf("arena run of plan %+v vs fresh", cfg.Faults), a.Run(cfg), mustRun(t, cfg))
	}
}

// TestReconvergenceAfterCrashRecovery forces a real bound violation: a
// tiny line with huge drift and a long crash produces a recovered node
// whose hardware clock lags the network far beyond the bound, and the
// jump rule pulls it back — ReconvergenceTime must be finite and
// strictly positive.
func TestReconvergenceAfterCrashRecovery(t *testing.T) {
	cfg := Config{
		N:           3,
		Seed:        5,
		Horizon:     12,
		Rho:         0.3,
		MaxDelay:    0.02,
		SampleEvery: 0.01,
		Topology:    TopologySpec{Kind: TopoLine},
		Driver:      DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Faults: FaultSpec{
			CrashEvery:    2,
			CrashDowntime: 4,
			Until:         3,
		},
	}
	rpt := mustRun(t, cfg)
	if rpt.Faults.Crashes == 0 || rpt.Faults.Recoveries == 0 {
		t.Fatalf("crash schedule never fired: %+v", rpt.Faults)
	}
	if rpt.MaxGlobalSkew <= rpt.Bound {
		t.Fatalf("no transient violation: max skew %v within bound %v (re-tune the scenario)",
			rpt.MaxGlobalSkew, rpt.Bound)
	}
	if math.IsInf(rpt.ReconvergenceTime, 1) {
		t.Fatal("never re-converged after the last fault")
	}
	if rpt.ReconvergenceTime <= 0 {
		t.Fatalf("reconvergence time %v, want strictly positive (violation was observed)",
			rpt.ReconvergenceTime)
	}
}
