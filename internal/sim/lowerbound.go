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
	"strings"

	"gcs/internal/transport"
)

// lowerBoundHorizon returns the run length a Theorem 4.1 demonstration
// needs under the defaulted config d: the real time at which the
// farthest node's layered schedule switches from rate 1+rho back to 1 —
// the moment the adversary has banked its full MaxDelay*maxDist hardware
// offset — plus a settle margin.
func lowerBoundHorizon(d Config) float64 {
	s := d.MaxDelay * float64(maxFlexibleDist(d.N)) / d.Rho
	return s + max(0.25*s, 2)
}

// flexibleDist is node v's flexible distance from w0 in the n-node
// two-chains network (dyngraph.NewTwoChains), chain B's edges being the
// constrained ones. Chain B joins w0 to wn at no cost, so every chain-B
// node, w0 and wn included, sits at 0, and the interior chain-A node
// v in [1, n/2-1] sits min(v, n/2-v) chain-A hops from the nearer end.
// A hop is flexible exactly when one of its endpoints is at distance
// >= 1.
func flexibleDist(n, v int) int {
	if h := n / 2; v > 0 && v < h {
		return min(v, h-v)
	}
	return 0
}

// maxFlexibleDist is the largest flexibleDist over n nodes, n/4, which
// chain-A node n/4 reaches.
func maxFlexibleDist(n int) int { return flexibleDist(n, n/4) }

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
}

// LowerBoundExperiment runs the Theorem 4.1 adversary base (its
// LowerBoundEps set, its N ignored) at each node count in ns, one cell
// per n named "n=<n>". A zero base Horizon is derived per n from the
// rate schedule, which a demonstration needs; a set one is honored as
// given. Each row's JSON is a LowerBoundResult and its CSV the run's
// skew series, one "n,t,min,max,skew" line per sample. A cell fails
// unless OmegaSkew <= MaxGlobalSkew <= UpperBound; with two or more node
// counts the grid also fails unless skew(n_last)/skew(n_first) is at
// least half of n_last/n_first — the Omega(n) growth.
func LowerBoundExperiment(base Config, ns []int) Experiment {
	cells := make([]SweepCell, len(ns))
	for i, n := range ns {
		cfg := base
		cfg.N = n
		if cfg.Horizon == 0 && cfg.Validate() == nil {
			cfg.Horizon = lowerBoundHorizon(cfg.WithDefaults())
		}
		cells[i] = SweepCell{Name: fmt.Sprintf("n=%d", n), Cfg: cfg}
	}
	return Experiment{
		Cells: cells,
		Table: fmt.Sprintf("%6s %8s %14s %14s %12s %12s", "n", "maxDist", "maxSkew", "finalSkew", "omega(n)", "upperBound"),
		CSV:   "n,t,min,max,skew",
		Fail:  "node count(s) with max global skew outside [omega(n), upperBound]",
		OK:    "ok: omega(n) <= max global skew <= upperBound at every n, growing at least half as fast as n",
		Judge: judgeLowerBound,
		Grid:  lowerBoundGrowth,
	}
}

// judgeLowerBound is LowerBoundExperiment's Judge: it reads the skew
// series off the finished simulation.
func judgeLowerBound(res SweepResult, s *Simulation) Row {
	rpt, cfg := res.Report, res.Cfg
	maxDist := maxFlexibleDist(cfg.N)
	r := LowerBoundResult{
		N:               cfg.N,
		MaxDist:         maxDist,
		MaxGlobalSkew:   rpt.MaxGlobalSkew,
		FinalGlobalSkew: rpt.FinalGlobalSkew,
		OmegaSkew:       2 * cfg.Rho / (1 + cfg.Rho) * cfg.MaxDelay * float64(maxDist),
		UpperBound:      rpt.Bound,
		Horizon:         cfg.Horizon,
		Samples:         rpt.Samples,
		EventsExecuted:  rpt.EventsExecuted,
		Transport:       rpt.Transport,
	}
	var csv strings.Builder
	for _, p := range s.series {
		fmt.Fprintf(&csv, "%d,%g,%g,%g,%g\n", r.N, p.T, p.Lo, p.Hi, p.Hi-p.Lo)
	}
	return Row{
		Table: fmt.Sprintf("%6d %8d %14.6f %14.6f %12.6f %12.2f",
			r.N, r.MaxDist, r.MaxGlobalSkew, r.FinalGlobalSkew, r.OmegaSkew, r.UpperBound),
		CSV:    csv.String(),
		JSON:   r,
		Failed: r.MaxGlobalSkew < r.OmegaSkew || r.MaxGlobalSkew > r.UpperBound,
	}
}

// lowerBoundGrowth is LowerBoundExperiment's grid verdict: the skew at
// the last node count over the skew at the first must be at least half
// the ratio of the node counts.
func lowerBoundGrowth(rows []Row) (string, error) {
	if len(rows) < 2 {
		return "", nil
	}
	first, last := rows[0].JSON.(LowerBoundResult), rows[len(rows)-1].JSON.(LowerBoundResult)
	ratio, grow := last.MaxGlobalSkew/first.MaxGlobalSkew, float64(last.N)/float64(first.N)
	note := fmt.Sprintf("growth: skew(n=%d)/skew(n=%d) = %.2fx over a %.0fx increase in n", last.N, first.N, ratio, grow)
	if !(ratio >= grow/2) {
		return note, fmt.Errorf("skew grew %.2fx over a %.0fx increase in n, less than half as fast as n", ratio, grow)
	}
	return note, nil
}
