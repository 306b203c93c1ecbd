package main

import (
	"flag"

	"gcs/internal/sim"
)

// addFaultFlags registers the -fault-* flags shared by the scenario,
// sweep, and gradient commands on fs, bound straight to the fields of the
// returned fault plan; a plan built from untouched flags is zero-valued,
// so the fault subsystem stays wired out entirely.
func addFaultFlags(fs *flag.FlagSet) *sim.FaultSpec {
	f := &sim.FaultSpec{}
	fs.Float64Var(&f.Drop, "fault-drop", 0, "per-message drop probability")
	fs.Float64Var(&f.Dup, "fault-dup", 0, "per-message duplication probability")
	fs.Float64Var(&f.DelaySpike, "fault-spike", 0, "per-message delay-spike probability (delay beyond the MaxDelay bound)")
	fs.Float64Var(&f.SpikeFactor, "fault-spike-factor", 0, "spiked delay cap as a multiple of MaxDelay (0 = default 4)")
	fs.Float64Var(&f.CrashEvery, "fault-crash-every", 0, "mean seconds between per-node crashes (0 = no crashes)")
	fs.Float64Var(&f.CrashDowntime, "fault-crash-downtime", 0, "mean downtime before a crashed node recovers (0 = default 1)")
	fs.BoolVar(&f.CrashStop, "fault-crash-stop", false, "crashed nodes never recover (crash-stop instead of crash-recover)")
	fs.Float64Var(&f.RateExcursionEvery, "fault-rate-every", 0, "mean seconds between per-node hardware-rate excursions outside [1-rho, 1+rho] (0 = none)")
	fs.Float64Var(&f.RateExcursionFactor, "fault-rate-factor", 0, "excursion magnitude cap as a multiple of rho (0 = default 3)")
	fs.Float64Var(&f.RateExcursionFor, "fault-rate-for", 0, "mean excursion duration in seconds (0 = default 0.5)")
	fs.Float64Var(&f.Until, "fault-until", 0, "inject fault onsets only before this simulated time (0 = horizon/2)")
	return f
}
