package sim

import (
	"fmt"
	"math"
)

// The chaos grid is the robustness counterpart of the scenario sweep: a
// fault-plan × topology × churn cross where every cell must inject at
// least one disturbance and re-converge — finite ReconvergenceTime —
// before the horizon. `gcsim chaos` runs it and the CI gate fails on
// any cell that does not inject or does not re-enter the analytic bound.

// ChaosPlan names one fault plan of the chaos grid.
type ChaosPlan struct {
	Name string
	Spec FaultSpec
}

// ChaosPlans returns the canonical fault plans: each fault kind alone
// at an aggressive rate (so the gate attributes a failure to one
// mechanism), crash-stop separately from crash-recover, and a combined
// plan layering all four kinds at once.
func ChaosPlans() []ChaosPlan {
	return []ChaosPlan{
		{Name: "drop", Spec: FaultSpec{Drop: 0.25}},
		{Name: "dup", Spec: FaultSpec{Dup: 0.25}},
		{Name: "spike", Spec: FaultSpec{DelaySpike: 0.25, SpikeFactor: 4}},
		{Name: "crash", Spec: FaultSpec{CrashEvery: 4, CrashDowntime: 0.5}},
		{Name: "crashstop", Spec: FaultSpec{CrashEvery: 30, CrashStop: true}},
		{Name: "rates", Spec: FaultSpec{RateExcursionEvery: 2, RateExcursionFactor: 4, RateExcursionFor: 0.5}},
		{Name: "all", Spec: FaultSpec{
			Drop: 0.1, Dup: 0.05, DelaySpike: 0.1, SpikeFactor: 3,
			CrashEvery: 8, CrashDowntime: 0.5,
			RateExcursionEvery: 4, RateExcursionFactor: 3, RateExcursionFor: 0.5,
		}},
	}
}

// chaosRow is one chaos cell's JSON row.
type chaosRow struct {
	Scenario       string  `json:"scenario"`
	N              int     `json:"n"`
	Seed           uint64  `json:"seed"`
	MaxGlobalSkew  float64 `json:"max_global_skew"`
	Bound          float64 `json:"bound"`
	Drops          uint64  `json:"drops"`
	Dups           uint64  `json:"dups"`
	DelaySpikes    uint64  `json:"delay_spikes"`
	Crashes        uint64  `json:"crashes"`
	Recoveries     uint64  `json:"recoveries"`
	RateExcursions uint64  `json:"rate_excursions"`
	LastFaultT     float64 `json:"last_fault_t"`
	Reconverged    bool    `json:"reconverged"`
	// ReconvergenceTime is seconds from the last fault until the global
	// skew re-entered the analytic bound; -1 when it never did.
	ReconvergenceTime float64 `json:"reconvergence_time"`
}

// ChaosExperiment crosses every chaos plan with a static ring, a static
// grid, and the rotating-star churn (the maximally dynamic pattern).
// Each cell's seed derives from the base seed and grid index (CellSeed),
// so the grid is a pure function of (n, seed, horizon, parallel). A cell
// fails unless it injected at least one disturbance (a quiet cell means
// the plan is broken) and re-entered its bound.
func ChaosExperiment(n int, seed uint64, horizon float64, parallel bool) Experiment {
	gw := SquareGridW(n)
	combos := []struct {
		label string
		topo  TopologySpec
		churn ChurnSpec
	}{
		{"ring", TopologySpec{Kind: TopoRing}, ChurnSpec{}},
		{"grid", TopologySpec{Kind: TopoGrid, W: gw, H: n / gw}, ChurnSpec{}},
		{"star", TopologySpec{}, ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25}},
	}
	var cells []SweepCell
	for _, p := range ChaosPlans() {
		for _, c := range combos {
			cfg := Config{
				N:        n,
				Horizon:  horizon,
				Rho:      0.01,
				MaxDelay: 0.01,
				Topology: c.topo,
				Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
				Churn:    c.churn,
				Faults:   p.Spec,
				Parallel: parallel,
				// The chaos sweep parallelizes across cells, so each parallel
				// cell runs its windows on one worker; the report is
				// worker-invariant either way.
				Workers: 1,
			}
			cfg.Seed = CellSeed(seed, len(cells))
			cells = append(cells, SweepCell{Name: p.Name + "/" + c.label, Cfg: cfg})
		}
	}
	return Experiment{
		Cells: cells,
		Table: fmt.Sprintf("%-16s %10s %10s %7s %7s %7s %8s %7s %7s %10s %11s",
			"cell", "maxSkew", "bound", "drops", "dups", "spikes", "crashes", "recov", "rates", "lastFault", "reconverge"),
		CSV:   "scenario,n,seed,max_global_skew,bound,drops,dups,delay_spikes,crashes,recoveries,rate_excursions,last_fault_t,reconverged,reconvergence_time",
		Fail:  "cell(s) failed the gate (no faults injected, or no re-convergence)",
		OK:    "ok: every chaos cell injected faults and re-converged inside its analytic bound",
		Judge: judgeChaos,
	}
}

// judgeChaos is ChaosExperiment's Judge.
func judgeChaos(res SweepResult, _ *Simulation) Row {
	rpt, fst := res.Report, res.Report.Faults
	r := chaosRow{
		Scenario: res.Name, N: res.Cfg.N, Seed: res.Cfg.Seed, MaxGlobalSkew: rpt.MaxGlobalSkew, Bound: rpt.Bound,
		Drops: fst.Drops, Dups: fst.Dups, DelaySpikes: fst.DelaySpikes, Crashes: fst.Crashes,
		Recoveries: fst.Recoveries, RateExcursions: fst.RateExcursions, LastFaultT: fst.LastFaultT,
		Reconverged: !math.IsInf(rpt.ReconvergenceTime, 1), ReconvergenceTime: reconvergence(rpt),
	}
	rc := "NEVER"
	if r.Reconverged {
		rc = fmt.Sprintf("%.4fs", r.ReconvergenceTime)
	}
	return Row{
		Table: fmt.Sprintf("%-16s %10.6f %10.4f %7d %7d %7d %8d %7d %7d %10.3f %11s",
			r.Scenario, r.MaxGlobalSkew, r.Bound, r.Drops, r.Dups, r.DelaySpikes, r.Crashes, r.Recoveries,
			r.RateExcursions, r.LastFaultT, rc),
		CSV: fmt.Sprintf("%s,%d,%d,%g,%g,%d,%d,%d,%d,%d,%d,%g,%t,%g\n",
			r.Scenario, r.N, r.Seed, r.MaxGlobalSkew, r.Bound, r.Drops, r.Dups, r.DelaySpikes, r.Crashes,
			r.Recoveries, r.RateExcursions, r.LastFaultT, r.Reconverged, r.ReconvergenceTime),
		JSON:   r,
		Failed: fst.Total() == 0 || !r.Reconverged,
	}
}
