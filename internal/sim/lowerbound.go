package sim

// The Theorem 4.1 lower-bound experiment (Kuhn, Locher, Oshman, SPAA
// 2009, Section 4): over the two-chain network of Figure 1 the adversary
// picks, per node, the layered rate schedule of Eq. (1) — run at 1+rho
// until the hardware clock is ahead by MaxDelay times the node's
// flexible distance from the reference node, then at 1 — and charges
// message delays asymmetrically: the full MaxDelay on every hop of chain
// A, a negligible Epsilon on chain B. Chain B's edges are "constrained"
// in the sense of Definition 4.3 (their delays reveal nothing the
// adversary cannot absorb), so a node's flexible distance counts only
// its chain-A hops, and the farthest chain-A interior node sits
// Theta(n) flexible hops from the endpoints. Information about that
// node's clock is stale by at least one message delay per flexible hop
// when it reaches the chain ends, and conservative estimate aging
// recovers only a (1-rho)/(1+rho) fraction of the true growth, so every
// algorithm in the model is forced into global skew that grows linearly
// with n — matching, up to constants, the upper bound the rest of the
// repo demonstrates.

import (
	"math"
	"slices"

	"gcs/internal/dyngraph"
	"gcs/internal/transport"
)

// LowerBoundConfig parameterizes one Theorem 4.1 run at a single n.
type LowerBoundConfig struct {
	// N is the node count of the two-chain network (>= 4).
	N int
	// Seed drives beacon phases; all delays and rate schedules are
	// adversarially fixed, so the execution is deterministic in (N, Seed).
	Seed uint64
	// Rho bounds hardware drift; MaxDelay bounds message delay. Zero
	// values default to 0.01 each, as elsewhere in the harness.
	Rho      float64
	MaxDelay float64
	// Epsilon is the delay the adversary charges on chain B (the fast
	// chain). It must lie in (0, MaxDelay]; zero defaults to MaxDelay/1000.
	Epsilon float64
	// BeaconEvery is the per-node beacon interval in hardware time
	// (default 0.1).
	BeaconEvery float64
	// Horizon is the real-time length of the run. Zero derives it from
	// the rate schedule: the last layered schedule switches back to rate
	// 1 at MaxDelay*maxDist/Rho, plus a settle margin.
	Horizon float64
	// SampleEvery is the skew sampling (and trace recording) period
	// (default 0.1).
	SampleEvery float64
}

// WithDefaults returns the config with unset fields filled in.
func (c LowerBoundConfig) WithDefaults() LowerBoundConfig {
	if c.N < 4 {
		panic("sim: lower bound needs N >= 4 (two chains with interior nodes)")
	}
	if c.Rho == 0 {
		c.Rho = 0.01
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 0.01
	}
	if c.Epsilon == 0 {
		c.Epsilon = c.MaxDelay / 1000
	}
	if c.Epsilon <= 0 || c.Epsilon > c.MaxDelay {
		panic("sim: lower-bound Epsilon must lie in (0, MaxDelay]")
	}
	if c.BeaconEvery == 0 {
		c.BeaconEvery = 0.1
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 0.1
	}
	if c.Horizon == 0 {
		s := c.switchHorizon()
		margin := 0.25 * s
		if margin < 2 {
			margin = 2
		}
		c.Horizon = s + margin
	}
	return c
}

// switchHorizon returns the real time at which the farthest node's
// layered schedule switches from rate 1+rho back to rate 1 — the moment
// the adversary has banked its full MaxDelay*maxDist hardware offset. It
// assumes Rho and MaxDelay have already been defaulted.
func (c LowerBoundConfig) switchHorizon() float64 {
	dists, _ := lowerBoundDists(c.N)
	return c.MaxDelay * float64(slices.Max(dists)) / c.Rho
}

// omegaSkew returns the analytic Omega(n) reference curve for a
// defaulted configuration whose largest flexible distance is maxDist:
// any view of the fastest node's clock held at the chain ends is stale
// by at least MaxDelay per flexible hop, and conservative aging
// recovers only a (1-rho)/(1+rho) fraction of the clock's true growth
// over that staleness, so the adversary forces skew of at least
//
//	2*Rho/(1+Rho) * MaxDelay * maxDist,
//
// which grows linearly in n. Observed skew exceeds it because beacons
// add a scheduling staleness of up to one beacon interval per hop on
// top of the delay bound.
func (c LowerBoundConfig) omegaSkew(maxDist int) float64 {
	return 2 * c.Rho / (1 + c.Rho) * c.MaxDelay * float64(maxDist)
}

// lowerBoundDists builds the two-chain network for n nodes and returns
// each node's flexible distance from w0 (chain B constrained) together
// with the chain-B interior membership table the delay mask keys on.
func lowerBoundDists(n int) (dists []int, isB []bool) {
	tc := dyngraph.NewTwoChains(n)
	isB = make([]bool, n)
	for i := 1; i <= tc.LenB(); i++ {
		isB[tc.BIndex(i)] = true
	}
	constrained := make(map[dyngraph.Edge]bool, tc.LenB()+1)
	for _, e := range tc.Edges {
		if isB[e.U] || isB[e.V] {
			constrained[e] = true
		}
	}
	return dyngraph.FlexibleDistances(n, tc.Edges, constrained, 0), isB
}

// newLowerBoundWired wires the Theorem 4.1 scenario onto a reusable
// arena, so sweeps pay the O(n) base wiring only when n grows: the
// two-chain topology, one Eq. (1) rate chain per node keyed on its
// flexible distance dists[v], and a transport delay mask charging
// MaxDelay across chain A and Epsilon across chain B (isB marks the
// chain-B interior). The returned simulation has not run yet. cfg must
// already have defaults applied.
func newLowerBoundWired(a *Arena, cfg LowerBoundConfig, dists []int, isB []bool) *Simulation {
	base := Config{
		N:           cfg.N,
		Seed:        cfg.Seed,
		Horizon:     cfg.Horizon,
		Rho:         cfg.Rho,
		MaxDelay:    cfg.MaxDelay,
		Topology:    TopologySpec{Kind: TopoTwoChains},
		Driver:      DriverSpec{Kind: DriveConstant},
		SampleEvery: cfg.SampleEvery,
	}
	base.Node.BeaconEvery = cfg.BeaconEvery
	s := a.Sim(base)

	// The adversary's delay mask: both DelayFns are built once here, so
	// the per-send mask lookup allocates nothing. An edge belongs to
	// chain B iff it touches a chain-B interior node (the shared
	// endpoints w0 and wn belong to both chains but every edge at them
	// leads into exactly one chain).
	slow := transport.FixedDelay(cfg.MaxDelay)
	fast := transport.FixedDelay(cfg.Epsilon)
	s.Net.SetDelayMask(func(from, to int) transport.DelayFn {
		if isB[from] || isB[to] {
			return fast
		}
		return slow
	})

	// Eq. (1) rate schedules: node x runs at 1+rho until its hardware
	// clock is ahead by MaxDelay*dist_M(w0, x), then at 1. The base wiring
	// stepped each constant driver once; stepping it again after
	// StartLayered sets the Eq. (1) rate at the current instant (time 0).
	for v, d := range dists {
		s.drivers[v].StartLayered(cfg.Rho, cfg.MaxDelay, d)
		s.driveStep(uint64(v))
	}
	return s
}

// LowerBoundResult is the outcome of one Theorem 4.1 run.
type LowerBoundResult struct {
	N int `json:"n"`
	// MaxDist is the largest flexible distance in the network (~n/4).
	MaxDist int `json:"max_flexible_distance"`
	// MaxGlobalSkew is the largest observed max-minus-min logical clock
	// spread; the experiment's headline number.
	MaxGlobalSkew float64 `json:"max_global_skew"`
	// FinalGlobalSkew is the spread at the horizon.
	FinalGlobalSkew float64 `json:"final_global_skew"`
	// OmegaSkew is the analytic Omega(n) reference the observation is
	// plotted against (see LowerBoundConfig.omegaSkew).
	OmegaSkew float64 `json:"omega_skew"`
	// UpperBound is the harness's analytic worst-case global skew for
	// the same topology, bracketing the observation from above.
	UpperBound float64 `json:"upper_bound"`
	// Horizon is the real-time length the run actually used.
	Horizon float64 `json:"horizon"`
	// Samples counts skew observations.
	Samples int `json:"samples"`
	// EventsExecuted is the DES kernel's fired-event count.
	EventsExecuted uint64          `json:"events_executed"`
	Transport      transport.Stats `json:"transport"`
}

// RunLowerBound wires and executes one Theorem 4.1 run on the arena's
// reusable simulation. If tr is non-nil it is attached (and reset) to
// record the per-node logical clock time series. Results are
// deterministic in the config (same config, bit-identical result) and
// bit-identical to freshly wired runs.
func (a *Arena) RunLowerBound(cfg LowerBoundConfig, tr *TraceRecorder) LowerBoundResult {
	cfg = cfg.WithDefaults()
	// One layout computation serves the wiring, the reported maxDist,
	// and the Omega curve.
	dists, isB := lowerBoundDists(cfg.N)
	maxDist := slices.Max(dists)
	s := newLowerBoundWired(a, cfg, dists, isB)
	if tr != nil {
		s.AttachTrace(tr)
	}
	rpt := s.Run()
	return LowerBoundResult{
		N:               cfg.N,
		MaxDist:         maxDist,
		MaxGlobalSkew:   rpt.MaxGlobalSkew,
		FinalGlobalSkew: rpt.FinalGlobalSkew,
		OmegaSkew:       cfg.omegaSkew(maxDist),
		UpperBound:      rpt.Bound,
		Horizon:         cfg.Horizon,
		Samples:         rpt.Samples,
		EventsExecuted:  rpt.EventsExecuted,
		Transport:       rpt.Transport,
	}
}

// LowerBoundSweepParallel runs the scenario at each node count in ns
// (base's N is ignored) and returns one result per n; the sweep
// demonstrates the Omega(n) growth, observed max global skew scaling
// linearly with n. It fans the n-sweep across workers goroutines
// (<= 0 means GOMAXPROCS), each owning a private arena and trace
// recorder reshaped per run, and returns results in ns order —
// bit-identical for every worker count, like RunSweep. base.Horizon is
// honored as given (the CLI passes the user's -horizon through); leave
// it 0 to re-derive the horizon from the rate schedule per n, which a
// Theorem 4.1 demonstration needs. collect, when non-nil, is called
// once per completed run from the worker goroutine with the sweep index
// and the worker's recorder; the recorder is only valid for the
// duration of the call (it is reshaped for the worker's next run), so
// consumers must extract what they need synchronously. With a nil
// collect no traces are recorded.
func LowerBoundSweepParallel(base LowerBoundConfig, ns []int, workers int,
	collect func(i int, res LowerBoundResult, tr *TraceRecorder)) []LowerBoundResult {
	results := make([]LowerBoundResult, len(ns))
	forEachCell(len(ns), workers, func(i int, a *Arena) {
		cfg := base
		cfg.N = ns[i]
		// An unset base Horizon re-derives per n in WithDefaults.
		cfg = cfg.WithDefaults()
		var tr *TraceRecorder
		if collect != nil {
			tr = a.Trace(cfg.N, int(math.Ceil(cfg.Horizon/cfg.SampleEvery))+2)
		}
		results[i] = a.RunLowerBound(cfg, tr)
		if collect != nil {
			collect(i, results[i], tr)
		}
	})
	return results
}
