package main

import (
	"flag"

	"gcs/internal/rt"
)

// runRealtime is the `realtime` subcommand: the same scenario surface as
// the default DES run, executed on the goroutine-per-node real-time
// runtime (internal/rt). One simulated second is one wall second, so the
// default horizon is short. The report shape is shared with the DES, and
// the same pass/fail gates apply — with 2x slack on the skew gate,
// because a wall-clock sampler takes fuzzy cuts, not the DES's exact
// ones. What only the DES can run (the gradient check, the lower-bound
// adversary) has no flag here; rt.Supports names it for library callers.
func runRealtime(args []string) {
	fs := flag.NewFlagSet("realtime", flag.ExitOnError)
	sf := addScenarioFlags(fs, 5)
	parseFlags(fs, args)

	cfg, err := sf.config()
	if err != nil {
		fail("%v", err)
	}
	rpt, err := rt.Run(cfg)
	if err != nil {
		fail("%v", err)
	}
	eff := cfg.WithDefaults()
	printReport("realtime:", eff, rpt)
	gate(eff, rpt, 2)
}
