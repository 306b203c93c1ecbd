package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"gcs/internal/dyngraph"
)

// lowerBoundBase is the Theorem 4.1 adversary at the defaults gcsim
// lowerbound runs: chain B charged MaxDelay/1000, N left to the sweep.
func lowerBoundBase(seed uint64) Config {
	return Config{Seed: seed, Topology: TopologySpec{Kind: TopoTwoChains}, LowerBoundEps: 0.01 / 1000}
}

// mustLowerBound runs base's lower-bound experiment at each n in ns on
// workers goroutines and returns the rows' results.
func mustLowerBound(t *testing.T, base Config, workers int, ns ...int) []LowerBoundResult {
	t.Helper()
	rows := mustExperiment(t, LowerBoundExperiment(base, ns), workers)
	res := make([]LowerBoundResult, len(rows))
	for i, r := range rows {
		res[i] = r.JSON.(LowerBoundResult)
	}
	return res
}

// flexibleDistsBFS is the oracle for flexibleDist: a 0/1 BFS from w0
// over the two-chains network dyngraph builds, in which a hop costs 0
// when it touches an interior chain-B node (Definition 4.3's
// constrained edges) and 1 otherwise.
func flexibleDistsBFS(n int) []int {
	tc := dyngraph.NewTwoChains(n)
	onB := make([]bool, n)
	for i := 1; i <= (n+1)/2-1; i++ {
		onB[tc.BIndex(i)] = true
	}
	type arc struct{ to, cost int }
	adj := make([][]arc, n)
	for _, e := range tc.Edges {
		c := 1
		if onB[e.U] || onB[e.V] {
			c = 0
		}
		adj[e.U] = append(adj[e.U], arc{e.V, c})
		adj[e.V] = append(adj[e.V], arc{e.U, c})
	}
	dist := slices.Repeat([]int{-1}, n)
	dist[0] = 0
	for deque := []int{0}; len(deque) > 0; {
		u := deque[0]
		deque = deque[1:]
		for _, a := range adj[u] {
			if nd := dist[u] + a.cost; dist[a.to] == -1 || nd < dist[a.to] {
				dist[a.to] = nd
				if a.cost == 0 {
					deque = append([]int{a.to}, deque...)
				} else {
					deque = append(deque, a.to)
				}
			}
		}
	}
	return dist
}

// TestFlexibleDistClosedForm: the closed form the lower bound's delay
// law, Eq. (1) schedules and horizon read agrees with the BFS at every
// node count from 4 to 256, its maximum included.
func TestFlexibleDistClosedForm(t *testing.T) {
	for n := 4; n <= 256; n++ {
		want := flexibleDistsBFS(n)
		for v, d := range want {
			if got := flexibleDist(n, v); got != d {
				t.Fatalf("n=%d: flexibleDist(%d) = %d, BFS says %d", n, v, got, d)
			}
		}
		if got := maxFlexibleDist(n); got != slices.Max(want) {
			t.Fatalf("n=%d: maxFlexibleDist = %d, BFS says %d", n, got, slices.Max(want))
		}
	}
}

// TestLowerBoundOmegaGrowth is the Theorem 4.1 acceptance test: under
// the layered adversary the observed max global skew grows linearly in
// n. The observation in fact lands exactly on MaxDelay*maxDist — the
// charged chain-A delay cancels each hop's banked clock offset, so the
// fast nodes' beacons look on-time and no jump rule can fire (the
// paper's indistinguishability argument, executed rather than argued).
func TestLowerBoundOmegaGrowth(t *testing.T) {
	e := LowerBoundExperiment(lowerBoundBase(1), []int{32, 64, 128, 256})
	rows := mustExperiment(t, e, 1)
	if _, err := e.Verdict(rows); err != nil {
		t.Errorf("verdict: %v", err)
	}
	var results []LowerBoundResult
	for _, r := range rows {
		results = append(results, r.JSON.(LowerBoundResult))
	}
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

// TestLowerBoundSweepMatchesIndividualRuns pins the runner's arena
// reuse: sharing one simulation across the n-sweep must not change any
// row, its skew series included, relative to independently wired runs.
// The largest n runs first, so later runs reuse its series buffer: a
// row judged off a later run's series would differ.
func TestLowerBoundSweepMatchesIndividualRuns(t *testing.T) {
	base := lowerBoundBase(3)
	ns := []int{64, 32, 48}
	swept := mustExperiment(t, LowerBoundExperiment(base, ns), 1)
	for i, n := range ns {
		want := mustExperiment(t, LowerBoundExperiment(base, []int{n}), 1)[0]
		if !reflect.DeepEqual(swept[i], want) {
			t.Fatalf("n=%d: sweep row diverged from individual run:\n  sweep = %+v\n  fresh = %+v",
				n, swept[i].JSON, want.JSON)
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

// TestLowerBoundDeterminism: the same config reproduces its rows, the
// skew series included, point for point, with one CSV line per sample.
// TestSweepParallelBitIdentical pins the worker-count invariance.
func TestLowerBoundDeterminism(t *testing.T) {
	e := LowerBoundExperiment(lowerBoundBase(7), []int{48, 16})
	a, b := mustExperiment(t, e, 2), mustExperiment(t, e, 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config diverged:\n  a = %+v\n  b = %+v", a, b)
	}
	r, points := a[0].JSON.(LowerBoundResult), strings.Count(a[0].CSV, "\n")
	if r.EventsExecuted == 0 || r.Transport.Delivered == 0 || points != r.Samples {
		t.Fatalf("degenerate execution: %d series points over %d samples, %+v", points, r.Samples, r)
	}
}

// TestLowerBoundVerdict: a failed node count fails the grid, and so
// does skew growing less than half as fast as n; exactly half passes.
func TestLowerBoundVerdict(t *testing.T) {
	e := LowerBoundExperiment(lowerBoundBase(1), nil)
	row := func(n int, skew float64, failed bool) Row {
		return Row{JSON: LowerBoundResult{N: n, MaxGlobalSkew: skew}, Failed: failed}
	}
	for _, tc := range []struct {
		rows []Row
		want string
	}{
		{[]Row{row(16, 0.04, false)}, ""},
		{[]Row{row(16, 0.04, false), row(64, 0.08, false)}, ""},
		{[]Row{row(16, 0.04, false), row(64, 0.079, false)}, "less than half as fast as n"},
		{[]Row{row(16, 0.04, false), row(64, 0.16, true)}, "1 node count(s)"},
	} {
		_, err := e.Verdict(tc.rows)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%+v: verdict %v, want %q", tc.rows, err, tc.want)
		}
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
// the model does not allow, and the experiment's runner returns its
// error.
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
		// The sharding sugar's default MinDelay, MaxDelay/4, lies above eps.
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
		if rows, err := LowerBoundExperiment(cfg, []int{cfg.N}).Run(1); err == nil || rows != nil {
			t.Errorf("%s: Run = %v, %v; want no rows and an error", name, rows, err)
		}
	}
}
