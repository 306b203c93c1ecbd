package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"gcs/internal/sim"
)

// runLowerBound implements `gcsim lowerbound`: sim.LowerBoundExperiment,
// the Theorem 4.1 two-chain adversarial scenario at several node counts.
// It prints the observed-vs-analytic skew table and the growth line,
// dumps each run's skew series as CSV plus the results as JSON for
// plotting, and exits nonzero unless every n brackets its skew between
// omega(n) and the upper bound and the skew grows at least half as fast
// as n. Each n is a plain sim.Config with LowerBoundEps set, so malformed
// flags come back as Config.Validate errors. The node counts fan across
// -workers arena-backed goroutines; the output is bit-identical for
// every worker count.
func runLowerBound(args []string) {
	fs := flag.NewFlagSet("gcsim lowerbound", flag.ExitOnError)
	var (
		nsFlag  = fs.String("n", "32,64,128,256", "comma-separated node counts to sweep")
		seed    = fs.Uint64("seed", 1, "PRNG seed (beacon phases; the adversary is deterministic)")
		rho     = fs.Float64("rho", 0.01, "hardware clock drift bound")
		delay   = fs.Float64("delay", 0.01, "message delay bound charged on chain A (seconds)")
		eps     = fs.Float64("eps", 0, "delay charged on chain B; 0 = delay/1000")
		beacon  = fs.Float64("beacon", 0.1, "beacon interval (hardware time)")
		sample  = fs.Float64("sample", 0.1, "skew sampling period (real time)")
		horizon = fs.Float64("horizon", 0, "run length; 0 derives it from the rate schedule per n")
		workers = fs.Int("workers", 1, "parallel sweep workers (0 = GOMAXPROCS, 1 = serial with shared arena)")
		out     = fs.String("out", ".", "directory for lowerbound_skew.csv and lowerbound_report.json")
	)
	parseFlags(fs, args)

	ns, err := parseNs(*nsFlag)
	if err != nil {
		fail("lowerbound: %v", err)
	}
	// Config reads a zero Rho or MaxDelay as "use the default", so a 0
	// here would run something other than what was asked for.
	if *rho == 0 || *delay == 0 {
		fail("lowerbound: -rho and -delay must be nonzero")
	}
	if *eps == 0 {
		*eps = *delay / 1000
	}
	base := sim.Config{
		Seed:          *seed,
		Horizon:       *horizon,
		Rho:           *rho,
		MaxDelay:      *delay,
		Topology:      sim.TopologySpec{Kind: sim.TopoTwoChains},
		Driver:        sim.DriverSpec{Kind: sim.DriveConstant},
		SampleEvery:   *sample,
		LowerBoundEps: *eps,
	}
	base.Node.BeaconEvery = *beacon
	eff := base.WithDefaults()
	grid{cmd: "lowerbound", out: *out, csvName: "lowerbound_skew.csv", jsonName: "lowerbound_report.json", workers: *workers,
		report: func(cells []any) any {
			return struct {
				Seed        uint64  `json:"seed"`
				Rho         float64 `json:"rho"`
				MaxDelay    float64 `json:"max_delay"`
				Epsilon     float64 `json:"epsilon"`
				BeaconEvery float64 `json:"beacon_every"`
				SampleEvery float64 `json:"sample_every"`
				Results     []any   `json:"results"`
			}{eff.Seed, eff.Rho, eff.MaxDelay, eff.LowerBoundEps, eff.Node.BeaconEvery, eff.SampleEvery, cells}
		},
	}.run(sim.LowerBoundExperiment(base, ns))
}

// parseNs parses a comma-separated list of node counts.
func parseNs(s string) ([]int, error) {
	var ns []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 4 {
			return nil, fmt.Errorf("bad node count %q (need integers >= 4)", part)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		return nil, fmt.Errorf("empty node count list")
	}
	return ns, nil
}
