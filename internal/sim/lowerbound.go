package sim

// The Theorem 4.1 lower-bound experiment (Kuhn, Locher, Oshman, SPAA
// 2009, Section 4): over the two-chain network of Figure 1 the adversary
// picks, per node, the layered rate schedule of Eq. (1) — run at 1+rho
// until the hardware clock is ahead by MaxDelay times the node's
// flexible distance from the reference node, then at 1 — and charges
// message delays asymmetrically: the full MaxDelay on every hop of chain
// A, a negligible LowerBoundEps on chain B. Chain B's edges are "constrained"
// in the sense of Definition 4.3 (their delays reveal nothing the
// adversary cannot absorb), so a node's flexible distance counts only
// its chain-A hops, and the farthest chain-A interior node sits
// Theta(n) flexible hops from the endpoints. Information about that
// node's clock is stale by at least one message delay per flexible hop
// when it reaches the chain ends, and conservative estimate aging
// recovers only a (1-rho)/(1+rho) fraction of the true growth, so every
// algorithm in the model is forced into global skew that grows linearly
// with n — matching, up to constants, the upper bound the rest of the
// repo demonstrates. The run is an ordinary Config with LowerBoundEps
// set: Reset installs the adversary's delay law and arm its schedules.

import (
	"fmt"
	"slices"

	"gcs/internal/dyngraph"
	"gcs/internal/transport"
)

// lowerBoundHorizon returns the run length a Theorem 4.1 demonstration
// needs under the defaulted config d: the real time at which the
// farthest node's layered schedule switches from rate 1+rho back to 1 —
// the moment the adversary has banked its full MaxDelay*maxDist hardware
// offset — plus a settle margin.
func lowerBoundHorizon(d Config) float64 {
	s := d.MaxDelay * float64(slices.Max(lowerBoundDists(d.N))) / d.Rho
	return s + max(0.25*s, 2)
}

// lowerBoundDists builds the two-chain network for n nodes and returns
// each node's flexible distance from w0, chain B's edges being the
// constrained ones. Every chain-B node (w0 and wn included) is at
// distance 0 and every interior chain-A node at distance >= 1, so a hop
// is flexible exactly when one of its endpoints is at distance >= 1.
func lowerBoundDists(n int) []int {
	tc := dyngraph.NewTwoChains(n)
	isB := make([]bool, n)
	for i := 1; i <= tc.LenB(); i++ {
		isB[tc.BIndex(i)] = true
	}
	constrained := make(map[dyngraph.Edge]bool, tc.LenB()+1)
	for _, e := range tc.Edges {
		if isB[e.U] || isB[e.V] {
			constrained[e] = true
		}
	}
	return dyngraph.FlexibleDistances(n, tc.Edges, constrained, 0)
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
	// plotted against: any view of the fastest node's clock held at the
	// chain ends is stale by at least MaxDelay per flexible hop, and
	// conservative aging recovers only a (1-rho)/(1+rho) fraction of the
	// clock's true growth over that staleness, so the adversary forces
	// skew of at least
	//
	//	2*Rho/(1+Rho) * MaxDelay * MaxDist,
	//
	// which grows linearly in n. Observed skew exceeds it because beacons
	// add a scheduling staleness of up to one beacon interval per hop on
	// top of the delay bound.
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
	// Series is the run's skew sample series, one point per sample; the
	// CLI writes it as CSV, so the JSON report leaves it out.
	Series []SkewPoint `json:"-"`
}

// LowerBoundSweep runs the Theorem 4.1 adversary base (its
// LowerBoundEps set, its N ignored) at each node count in ns and returns
// one result per n, skew series included; the sweep demonstrates the
// Omega(n) growth, observed max global skew scaling linearly with n. A
// zero base Horizon is derived per n from the rate schedule, which a
// demonstration needs; a set one is honored as given. The n-sweep fans
// across workers goroutines (<= 0 means GOMAXPROCS), each owning a
// private arena reused per run, and results come back in ns order,
// bit-identical for every worker count, like RunSweep. An invalid config
// at any n fails the whole sweep before anything runs.
func LowerBoundSweep(base Config, ns []int, workers int) ([]LowerBoundResult, error) {
	cfgs := make([]Config, len(ns))
	for i, n := range ns {
		cfg := base
		cfg.N = n
		err := cfg.Validate()
		if err == nil && cfg.Horizon == 0 {
			cfg.Horizon = lowerBoundHorizon(cfg.WithDefaults())
			err = cfg.Validate() // a fault plan's Until against that horizon
		}
		if err != nil {
			return nil, fmt.Errorf("n=%d: %w", n, err)
		}
		cfgs[i] = cfg
	}
	results := make([]LowerBoundResult, len(ns))
	forEachCell(len(ns), workers, func(i int, a *Arena) {
		s := a.Sim(cfgs[i])
		rpt := s.Run()
		maxDist, rho := slices.Max(s.lbDists), s.Cfg.Rho
		results[i] = LowerBoundResult{
			N:               s.Cfg.N,
			MaxDist:         maxDist,
			MaxGlobalSkew:   rpt.MaxGlobalSkew,
			FinalGlobalSkew: rpt.FinalGlobalSkew,
			OmegaSkew:       2 * rho / (1 + rho) * s.Cfg.MaxDelay * float64(maxDist),
			UpperBound:      rpt.Bound,
			Horizon:         s.Cfg.Horizon,
			Samples:         rpt.Samples,
			EventsExecuted:  rpt.EventsExecuted,
			Transport:       rpt.Transport,
			// A copy: the arena reuses its series for the next run.
			Series: slices.Clone(s.series),
		}
	})
	return results, nil
}
