package sim

import (
	"reflect"
	"testing"
)

// TestLowerBoundOmegaGrowth is the Theorem 4.1 acceptance test: under
// the layered adversary the observed max global skew grows linearly in
// n. The observation in fact lands exactly on MaxDelay*maxDist — the
// charged chain-A delay cancels each hop's banked clock offset, so the
// fast nodes' beacons look on-time and no jump rule can fire (the
// paper's indistinguishability argument, executed rather than argued).
func TestLowerBoundOmegaGrowth(t *testing.T) {
	results := LowerBoundSweepParallel(LowerBoundConfig{Seed: 1}, []int{32, 64, 128, 256}, 1, nil)
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
// relative to independently wired runs.
func TestLowerBoundSweepMatchesIndividualRuns(t *testing.T) {
	base := LowerBoundConfig{Seed: 3}
	ns := []int{32, 48, 64}
	swept := LowerBoundSweepParallel(base, ns, 1, nil)
	for i, n := range ns {
		cfg := base
		cfg.N = n
		want := NewArena().RunLowerBound(cfg, nil)
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
	res := NewArena().RunLowerBound(LowerBoundConfig{N: 64, Seed: 1}, nil)
	if res.FinalGlobalSkew != res.MaxGlobalSkew {
		t.Fatalf("skew decayed: final %v < max %v", res.FinalGlobalSkew, res.MaxGlobalSkew)
	}
}

func TestLowerBoundDeterminism(t *testing.T) {
	cfg := LowerBoundConfig{N: 48, Seed: 7}
	trA := NewTraceRecorder(48, 2048)
	trB := NewTraceRecorder(48, 2048)
	a := NewArena().RunLowerBound(cfg, trA)
	b := NewArena().RunLowerBound(cfg, trB)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n  a = %+v\n  b = %+v", a, b)
	}
	if a.EventsExecuted == 0 || a.Transport.Delivered == 0 {
		t.Fatalf("degenerate execution: %+v", a)
	}
	if trA.Len() != trB.Len() {
		t.Fatalf("trace lengths diverged: %d vs %d", trA.Len(), trB.Len())
	}
	for i := 0; i < trA.Len(); i++ {
		ta, va := trA.Sample(i)
		tb, vb := trB.Sample(i)
		if ta != tb || !reflect.DeepEqual(va, vb) {
			t.Fatalf("trace sample %d diverged", i)
		}
	}
}

// TestLowerBoundSteadyStateDoesNotAllocate pins the acceptance
// criterion that the adversarial run — mask lookups, layered schedules,
// trace recording included — stays allocation-free once warm.
func TestLowerBoundSteadyStateDoesNotAllocate(t *testing.T) {
	cfg := LowerBoundConfig{N: 32, Seed: 1}.WithDefaults()
	s := newLowerBound(cfg)
	tr := NewTraceRecorder(cfg.N, 64)
	s.AttachTrace(tr)
	// Warm up: arenas, event pool, estimate maps, and the trace ring all
	// reach steady state within a few beacon intervals.
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

func TestLowerBoundConfigValidation(t *testing.T) {
	for name, cfg := range map[string]LowerBoundConfig{
		"tiny n":      {N: 3},
		"eps too big": {N: 8, Epsilon: 0.5, MaxDelay: 0.01},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: WithDefaults did not panic", name)
				}
			}()
			cfg.WithDefaults()
		}()
	}
}

// newLowerBound wires cfg (defaults already applied) onto a fresh arena
// without running it.
func newLowerBound(cfg LowerBoundConfig) *Simulation {
	dists, isB := lowerBoundDists(cfg.N)
	return newLowerBoundWired(NewArena(), cfg, dists, isB)
}
