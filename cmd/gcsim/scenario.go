package main

import (
	"flag"
	"fmt"
	"math"

	"gcs/internal/sim"
)

// scenarioFlags holds the single-scenario flags shared by the default
// DES run and the `realtime` subcommand. Register them with
// addScenarioFlags and convert them to a sim.Config with config().
type scenarioFlags struct {
	// cfg receives the flags that are config fields as they stand; the
	// rest are names to look up or apply to one kind only.
	cfg                 sim.Config
	topo, driver, churn string
	gridW               int
	period, overlap     float64
	lifetime, absence   float64
	extraEdges          int
	faults              *sim.FaultSpec
}

// addScenarioFlags registers the scenario and fault-plan flags on fs and
// returns the holder to read after parsing. Only the default horizon
// differs between commands: realtime seconds are wall seconds.
func addScenarioFlags(fs *flag.FlagSet, horizon float64) *scenarioFlags {
	f := &scenarioFlags{faults: addFaultFlags(fs)}
	fs.IntVar(&f.cfg.N, "n", 16, "number of nodes")
	fs.Uint64Var(&f.cfg.Seed, "seed", 1, "PRNG seed")
	fs.Float64Var(&f.cfg.Horizon, "horizon", horizon, "seconds to run (simulated; wall time under realtime)")
	fs.Float64Var(&f.cfg.Rho, "rho", 0.01, "hardware clock drift bound")
	fs.Float64Var(&f.cfg.MaxDelay, "delay", 0.01, "message delay bound (seconds)")
	fs.StringVar(&f.topo, "topo", "ring", "topology: line|ring|star|grid|complete|twochains")
	fs.IntVar(&f.gridW, "grid-w", 0, "grid width (topo=grid; 0 = the most square factorization of n)")
	fs.StringVar(&f.driver, "driver", "randomwalk", "clock driver: constant|randomwalk|bangbang")
	fs.Float64Var(&f.cfg.Driver.Interval, "interval", 1, "driver rate-change interval")
	fs.StringVar(&f.churn, "churn", "none", "churn: none|volatile|rotatingstar")
	fs.Float64Var(&f.period, "period", 2, "rotating-star period")
	fs.Float64Var(&f.overlap, "overlap", 0.5, "rotating-star overlap")
	fs.Float64Var(&f.lifetime, "lifetime", 1.5, "volatile edge mean lifetime")
	fs.Float64Var(&f.absence, "absence", 1.0, "volatile edge mean absence")
	fs.IntVar(&f.extraEdges, "extra-edges", 10, "volatile candidate edge count")
	fs.Float64Var(&f.cfg.Node.BeaconEvery, "beacon", 0.1, "beacon interval (hardware time)")
	fs.Float64Var(&f.cfg.SampleEvery, "sample", 0.1, "skew sampling period")
	return f
}

// config converts the parsed flags into a scenario config. It rejects
// what only the flags can get wrong (unknown names, a grid width that
// does not divide n); everything else is Config.Validate's job.
func (f *scenarioFlags) config() (sim.Config, error) {
	cfg := f.cfg
	cfg.Faults = *f.faults

	var ok bool
	if cfg.Topology.Kind, ok = sim.ParseTopologyKind(f.topo); !ok {
		return cfg, fmt.Errorf("unknown topology %q", f.topo)
	}
	if cfg.Topology.Kind == sim.TopoGrid {
		w := f.gridW
		if w == 0 {
			w = sim.SquareGridW(cfg.N)
		}
		if w <= 0 || cfg.N%w != 0 {
			return cfg, fmt.Errorf("grid width %d does not divide n=%d", w, cfg.N)
		}
		cfg.Topology.W, cfg.Topology.H = w, cfg.N/w
	}
	if cfg.Driver.Kind, ok = sim.ParseDriverKind(f.driver); !ok {
		return cfg, fmt.Errorf("unknown driver %q", f.driver)
	}
	if cfg.Churn.Kind, ok = sim.ParseChurnKind(f.churn); !ok {
		return cfg, fmt.Errorf("unknown churn %q", f.churn)
	}
	switch cfg.Churn.Kind {
	case sim.ChurnRotatingStar:
		cfg.Churn.Period, cfg.Churn.Overlap = f.period, f.overlap
	case sim.ChurnVolatile:
		cfg.Churn.Lifetime, cfg.Churn.Absence, cfg.Churn.ExtraEdges = f.lifetime, f.absence, f.extraEdges
	}
	return cfg, nil
}

// printReport prints a finished scenario: the header line under the
// command's name, then the skew, traffic, activity, drift and (for a
// faulted plan) fault lines. eff is the defaulted config the run used:
// WithDefaults treats zero-valued fields (e.g. -rho 0) as unset and
// fills them in, so the effective values are what gets reported.
func printReport(command string, eff sim.Config, rpt sim.SkewReport) {
	fmt.Printf("%s n=%d topo=%v driver=%v churn=%v horizon=%gs rho=%g maxDelay=%g seed=%d\n",
		command, eff.N, eff.Topology.Kind, eff.Driver.Kind, eff.Churn.Kind, eff.Horizon, eff.Rho, eff.MaxDelay, eff.Seed)
	if eff.MinDelay > 0 {
		fmt.Printf("parallel: shards=%d minDelay=%g (workers=%d — execution only, never in the report)\n",
			max(eff.Shards, 1), eff.MinDelay, eff.Workers)
	}
	fmt.Printf("skew:     maxGlobal=%.6f  maxAdjacent=%.6f  final=%.6f  bound=%.6f\n",
		rpt.MaxGlobalSkew, rpt.MaxAdjacentSkew, rpt.FinalGlobalSkew, rpt.Bound)
	fmt.Printf("traffic:  sent=%d delivered=%d dropped=%d refused=%d\n",
		rpt.Transport.Sent, rpt.Transport.Delivered, rpt.Transport.Dropped, rpt.Transport.Refused)
	fmt.Printf("activity: events=%d beacons=%d jumps=%d edgeAdds=%d edgeRemoves=%d samples=%d\n",
		rpt.EventsExecuted, rpt.TotalBeacons, rpt.TotalJumps, rpt.EdgeAdds, rpt.EdgeRemoves, rpt.Samples)
	fmt.Printf("drift:    ratesSeen=[%.6f, %.6f] allowed=[%.6f, %.6f]\n",
		rpt.MinRateSeen, rpt.MaxRateSeen, 1-eff.Rho, 1+eff.Rho)
	if !eff.Faults.Enabled() {
		return
	}
	fst := rpt.Faults
	fmt.Printf("faults:   drops=%d dups=%d spikes=%d crashes=%d recoveries=%d rateExcursions=%d lastFault=%.3f\n",
		fst.Drops, fst.Dups, fst.DelaySpikes, fst.Crashes, fst.Recoveries, fst.RateExcursions, fst.LastFaultT)
	if math.IsInf(rpt.ReconvergenceTime, 1) {
		fmt.Println("reconverge: NEVER — global skew still outside the bound at the horizon")
	} else {
		fmt.Printf("reconverge: %.6fs after the last fault\n", rpt.ReconvergenceTime)
	}
}

// gate is the pass/fail rule both commands end on. A faulted run is
// allowed to breach the bound while faults are firing — its gate is
// re-convergence; an unfaulted run must keep its global skew inside the
// analytic bound throughout. slack is 1 for the DES; the real-time
// runtime's wall-clock sampling jitter earns it 2.
func gate(eff sim.Config, rpt sim.SkewReport, slack float64) {
	if eff.Faults.Enabled() {
		if math.IsInf(rpt.ReconvergenceTime, 1) {
			fail("NO RECONVERGENCE: global skew never re-entered the analytic bound after the last fault")
		}
		fmt.Println("ok: re-converged inside the analytic bound after the last fault")
		return
	}
	times, note := "", ""
	if slack != 1 {
		times, note = fmt.Sprintf("%gx ", slack), fmt.Sprintf(" (%gx real-time slack)", slack)
	}
	if rpt.MaxGlobalSkew > slack*rpt.Bound {
		fail("VIOLATION: max global skew %v exceeds %sanalytic bound %v", rpt.MaxGlobalSkew, times, rpt.Bound)
	}
	fmt.Println("ok: global skew within analytic bound" + note)
}
