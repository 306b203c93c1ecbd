package sim

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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
		"shardsNoFloor":   func(c *Config) { c.Shards = 4 },
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

// TestValidateRejectsNaN: a NaN fails every comparison, so each of these
// fields once passed Validate and then panicked in a schedule, never
// ended a sampler loop, or silently stopped its chain. Validate must
// refuse each with an error that names the field.
func TestValidateRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for field, mut := range map[string]func(*Config){
		"SampleEvery":        func(c *Config) { c.SampleEvery = nan },
		"Driver.Interval":    func(c *Config) { c.Driver.Interval = nan },
		"Churn.Lifetime":     func(c *Config) { c.Churn.Lifetime = nan },
		"Churn.Absence":      func(c *Config) { c.Churn.Absence = nan },
		"BeaconEvery":        func(c *Config) { c.Node.BeaconEvery = nan },
		"Kappa":              func(c *Config) { c.Node.Kappa = nan },
		"JumpThreshold":      func(c *Config) { c.Node.JumpThreshold = nan },
		"CrashEvery":         func(c *Config) { c.Faults.CrashEvery = nan },
		"CrashDowntime":      func(c *Config) { c.Faults.CrashDowntime = nan },
		"RateExcursionEvery": func(c *Config) { c.Faults.RateExcursionEvery = nan },
		"RateExcursionFor":   func(c *Config) { c.Faults.RateExcursionFor = nan },
	} {
		cfg := faultedChurnConfig(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("NaN %s: Validate = %v, want an error naming it", field, err)
		}
	}
}

// TestValidateRejectsStallsAndInfiniteBounds: a positive step below one
// ulp of the horizon is lost in now+step, so its chain once rescheduled
// at one instant forever; an infinite MaxDelay or BeaconEvery once made
// the skew bound +Inf, which every gate passes. Validate must refuse
// each with an error that names the field, and still accept a step of
// exactly one ulp and a sub-ulp interval on the constant driver, which
// never reads it.
func TestValidateRejectsStallsAndInfiniteBounds(t *testing.T) {
	inf := math.Inf(1)
	for field, mut := range map[string]func(*Config){
		"SampleEvery":     func(c *Config) { c.SampleEvery = 1e-300 },
		"Driver.Interval": func(c *Config) { c.Driver.Interval = 1e-300 },
		"MaxDelay":        func(c *Config) { c.MaxDelay = inf },
		"BeaconEvery":     func(c *Config) { c.Node.BeaconEvery = inf },
		"overflow":        func(c *Config) { c.MaxDelay = math.MaxFloat64 },
	} {
		cfg := faultedChurnConfig(1)
		mut(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("%s: Validate = %v, want an error naming it", field, err)
		}
	}
	ulp := churnyConfig(1)
	ulp.SampleEvery = math.Nextafter(ulp.Horizon, inf) - ulp.Horizon
	ulp.Driver.Interval = ulp.SampleEvery
	constant := churnyConfig(1)
	constant.Driver = DriverSpec{Kind: DriveConstant, Interval: 1e-300}
	for _, cfg := range []Config{ulp, constant} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%+v: %v", cfg.Driver, err)
		}
	}
}

// TestRunSweepSurfacesPerCellErrors: an invalid cell fails the sweep
// and no cell runs. The error names every invalid cell, and neither
// RunSweep nor Experiment.Run returns rows for a grid that cannot run
// whole.
func TestRunSweepSurfacesPerCellErrors(t *testing.T) {
	bad := churnyConfig(2)
	bad.Rho = 2
	worse := churnyConfig(3)
	worse.N = 0
	cells := []SweepCell{
		{Name: "good", Cfg: churnyConfig(1)},
		{Name: "bad", Cfg: bad},
		{Name: "worse", Cfg: worse},
	}
	out, err := RunSweep(cells, 2)
	if err == nil {
		t.Fatal("RunSweep returned nil error despite malformed cells")
	}
	for _, want := range []string{"sweep cell 1 (bad)", "sweep cell 2 (worse)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	if out != nil {
		t.Fatalf("RunSweep returned %d results alongside its error", len(out))
	}
	ran := 0
	e := Experiment{Cells: cells, Judge: func(SweepResult, *Simulation) Row { ran++; return Row{} }}
	if rows, err := e.Run(1); err == nil || rows != nil || ran != 0 {
		t.Fatalf("Experiment.Run: %d rows, err %v, %d cells judged; want none, an error, none", len(rows), err, ran)
	}
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

// TestRateExcursionYieldsToDriverStep pins how a rate excursion meets
// the node's rate driver. The excursion's start forces a rate outside
// [1-rho, 1+rho], but the driver's next step sets its own in-band rate
// while the injector still counts the node as excursed, and the
// excursion's end sets rate 1 until the driver's following step. Only a
// driver that takes no further step (constant, after time 0) leaves a
// whole excursion out of band. ROADMAP lists making the excursion hold
// against the driver as an open physics change; it will flip the
// random-walk half of this test.
func TestRateExcursionYieldsToDriverStep(t *testing.T) {
	// sample steps a ring with long excursions and reads every node's
	// hardware rate, classified by the excursion chain's own state: its
	// steps alternate start and end, so excursed[i] toggles per step.
	sample := func(driver DriverSpec) (inBand, outBand, nominal int) {
		cfg := Config{N: 12, Topology: TopologySpec{Kind: TopoRing}, Horizon: 20, Seed: 3, Driver: driver,
			Faults: FaultSpec{RateExcursionEvery: 1, RateExcursionFor: 2, Until: 20}}
		s := New(cfg)
		excursed := make([]bool, cfg.N)
		s.rateFn = func(arg uint64) {
			s.rateStep(arg)
			excursed[arg] = !excursed[arg]
		}
		s.Reset(cfg) // arm the chains with the wrapped step
		rho := s.Cfg.Rho
		// seen[i]: node i has been sampled inside an excursion.
		seen := make([]bool, cfg.N)
		for now := 0.05; now <= cfg.Horizon; now += 0.05 {
			s.Advance(now)
			for i, c := range s.Clocks {
				rate := c.ReadAt(now+1) - c.ReadAt(now)
				switch {
				case excursed[i] && math.Abs(rate-1) <= rho+1e-9:
					inBand++
				case excursed[i]:
					outBand++
					seen[i] = true
				case seen[i] && driver.Kind == DriveConstant:
					if math.Abs(rate-1) > 1e-9 {
						t.Fatalf("constant driver: node %d runs at %v after its excursion ended, want 1", i, rate)
					}
					nominal++
				}
			}
		}
		return inBand, outBand, nominal
	}
	in, out, _ := sample(DriverSpec{Kind: DriveRandomWalk, Interval: 0.5})
	t.Logf("random walk: %d in band, %d out of band inside excursions", in, out)
	if in == 0 || out == 0 {
		t.Fatalf("random walk: %d in-band and %d out-of-band samples inside excursions, want both", in, out)
	}
	in, out, nominal := sample(DriverSpec{Kind: DriveConstant})
	t.Logf("constant: %d in band, %d out of band inside excursions, %d nominal after", in, out, nominal)
	if in != 0 || out == 0 || nominal == 0 {
		t.Fatalf("constant driver: %d in-band, %d out-of-band samples inside excursions and %d after one, want 0, >0, >0",
			in, out, nominal)
	}
}
