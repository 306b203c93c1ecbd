package sim

import (
	"reflect"
	"strings"
	"testing"
)

// lowerBoundBase is the Theorem 4.1 adversary at the defaults gcsim
// lowerbound runs: chain B charged MaxDelay/1000, N left to the sweep.
func lowerBoundBase(seed uint64) Config {
	return Config{Seed: seed, Topology: TopologySpec{Kind: TopoTwoChains}, LowerBoundEps: 0.01 / 1000}
}

// mustLowerBound runs base at each n in ns on workers goroutines.
func mustLowerBound(t *testing.T, base Config, workers int, ns ...int) []LowerBoundResult {
	t.Helper()
	res, err := LowerBoundSweep(base, ns, workers)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLowerBoundOmegaGrowth is the Theorem 4.1 acceptance test: under
// the layered adversary the observed max global skew grows linearly in
// n. The observation in fact lands exactly on MaxDelay*maxDist — the
// charged chain-A delay cancels each hop's banked clock offset, so the
// fast nodes' beacons look on-time and no jump rule can fire (the
// paper's indistinguishability argument, executed rather than argued).
func TestLowerBoundOmegaGrowth(t *testing.T) {
	results := mustLowerBound(t, lowerBoundBase(1), 1, 32, 64, 128, 256)
	for _, res := range results {
		if res.MaxGlobalSkew < res.OmegaSkew {
			t.Errorf("n=%d: observed skew %v below analytic lower bound %v",
				res.N, res.MaxGlobalSkew, res.OmegaSkew)
		}
		if res.MaxGlobalSkew > res.UpperBound {
			t.Errorf("n=%d: observed skew %v above analytic upper bound %v",
				res.N, res.MaxGlobalSkew, res.UpperBound)
		}
		// The adversary banks exactly MaxDelay per flexible hop; allow
		// float slack.
		want := 0.01 * float64(res.MaxDist)
		if diff := res.MaxGlobalSkew - want; diff < -1e-9 || diff > 1e-9 {
			t.Errorf("n=%d: observed skew %v, want MaxDelay*maxDist = %v",
				res.N, res.MaxGlobalSkew, want)
		}
	}
	first, last := results[0], results[len(results)-1]
	if ratio := last.MaxGlobalSkew / first.MaxGlobalSkew; ratio < 4 {
		t.Fatalf("skew(n=%d)/skew(n=%d) = %v, want >= 4 (Omega(n) growth)",
			last.N, first.N, ratio)
	}
}

// TestLowerBoundSweepMatchesIndividualRuns pins the sweep's arena reuse:
// sharing one simulation across the n-sweep must not change any result
// relative to independently wired runs. The largest n runs first, so
// later runs reuse its series buffer: a result that aliased it would be
// overwritten.
func TestLowerBoundSweepMatchesIndividualRuns(t *testing.T) {
	base := lowerBoundBase(3)
	ns := []int{64, 32, 48}
	swept := mustLowerBound(t, base, 1, ns...)
	for i, n := range ns {
		want := mustLowerBound(t, base, 1, n)[0]
		if !reflect.DeepEqual(swept[i], want) {
			t.Fatalf("n=%d: sweep result diverged from individual run:\n  sweep = %+v\n  fresh = %+v",
				n, swept[i], want)
		}
	}
}

// TestLowerBoundSkewPersists pins the "forever" half of the argument:
// the banked skew does not decay after every schedule has switched back
// to rate 1 — the executions stay indistinguishable, so the final skew
// equals the maximum.
func TestLowerBoundSkewPersists(t *testing.T) {
	res := mustLowerBound(t, lowerBoundBase(1), 1, 64)[0]
	if res.FinalGlobalSkew != res.MaxGlobalSkew {
		t.Fatalf("skew decayed: final %v < max %v", res.FinalGlobalSkew, res.MaxGlobalSkew)
	}
}

// TestLowerBoundDeterminism: the same config reproduces the result, its
// skew series included, point for point, on any worker count.
func TestLowerBoundDeterminism(t *testing.T) {
	a := mustLowerBound(t, lowerBoundBase(7), 1, 48, 16)
	b := mustLowerBound(t, lowerBoundBase(7), 2, 48, 16)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n  a = %+v\n  b = %+v", a, b)
	}
	if r := a[0]; r.EventsExecuted == 0 || r.Transport.Delivered == 0 || len(r.Series) != r.Samples {
		t.Fatalf("degenerate execution: %d series points over %d samples, %+v", len(r.Series), r.Samples, r)
	}
}

// TestLowerBoundSteadyStateDoesNotAllocate pins the acceptance
// criterion that the adversarial run — its delay law, layered schedules
// and the skew series included — stays allocation-free once warm.
func TestLowerBoundSteadyStateDoesNotAllocate(t *testing.T) {
	cfg := lowerBoundBase(1)
	cfg.N = 32
	s := New(cfg)
	// Warm up: arenas, event pool and estimate maps all reach steady
	// state within a few beacon intervals.
	s.Advance(2)
	cursor := 2.0
	allocs := testing.AllocsPerRun(100, func() {
		cursor += 0.25
		s.Advance(cursor)
	})
	if allocs > 0 {
		t.Errorf("steady-state lower-bound run allocated %v objects per 0.25s window, want 0", allocs)
	}
}

// TestLowerBoundValidation: Validate, not a panic, rejects an adversary
// the model does not allow, and the sweep returns its error.
func TestLowerBoundValidation(t *testing.T) {
	for name, tc := range map[string]struct {
		mut  func(*Config)
		want string
	}{
		"tiny n":       {func(c *Config) { c.N = 3 }, "n >= 4"},
		"eps too big":  {func(c *Config) { c.LowerBoundEps = 0.5 }, "LowerBoundEps"},
		"negative eps": {func(c *Config) { c.LowerBoundEps = -0.001 }, "LowerBoundEps"},
		"ring":         {func(c *Config) { c.Topology.Kind = TopoRing }, "two-chains"},
		"churn": {func(c *Config) {
			c.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: 1, Absence: 1, ExtraEdges: 2}
		}, "two-chains"},
		"random walk": {func(c *Config) { c.Driver.Kind = DriveRandomWalk }, "constant driver"},
		// The sharded harness's default MinDelay, MaxDelay/4, lies above eps.
		"parallel": {func(c *Config) { c.Parallel = true }, "MinDelay"},
	} {
		cfg := lowerBoundBase(1)
		cfg.N = 8
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: the unmutated adversary is rejected: %v", name, err)
		}
		tc.mut(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error naming %q", name, err, tc.want)
		}
		if res, err := LowerBoundSweep(cfg, []int{cfg.N}, 1); err == nil || res != nil {
			t.Errorf("%s: LowerBoundSweep = %v, %v; want no results and an error", name, res, err)
		}
	}
}
