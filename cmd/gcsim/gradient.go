package main

import (
	"flag"

	"gcs/internal/sim"
)

// runGradient implements `gcsim gradient`: sim.GradientExperiment — every
// topology x driver combination plus the churn scenarios, with the
// per-sample GradientChecker attached — at one node count, judged
// against Config.GradientBound, written to gradient_skew.csv and
// gradient_report.json. It exits nonzero if any scenario violates its
// bound at any distance.
func runGradient(args []string) {
	fs := flag.NewFlagSet("gcsim gradient", flag.ExitOnError)
	var (
		n       = fs.Int("n", 36, "nodes per scenario (grid topology uses the nearest WxH factorization)")
		seed    = fs.Uint64("seed", 1, "PRNG seed")
		horizon = fs.Float64("horizon", 30, "simulated seconds per scenario")
		rho     = fs.Float64("rho", 0.01, "hardware clock drift bound")
		delay   = fs.Float64("delay", 0.01, "message delay bound (seconds)")
		beacon  = fs.Float64("beacon", 0.1, "beacon interval (hardware time)")
		sample  = fs.Float64("sample", 0.1, "skew sampling period (real time)")
		workers = fs.Int("workers", 0, "parallel sweep workers (0 = GOMAXPROCS)")
		out     = fs.String("out", ".", "directory for gradient_skew.csv and gradient_report.json")
	)
	faults := addFaultFlags(fs)
	parseFlags(fs, args)
	if *n < 4 {
		fail("gradient: -n must be at least 4")
	}

	base := sim.Config{N: *n, Seed: *seed, Horizon: *horizon, Rho: *rho, MaxDelay: *delay, SampleEvery: *sample, Faults: *faults}
	base.Node.BeaconEvery = *beacon
	grid{cmd: "gradient", out: *out, csvName: "gradient_skew.csv", jsonName: "gradient_report.json", workers: *workers,
		report: func(cells []any) any {
			return struct {
				Seed        uint64  `json:"seed"`
				N           int     `json:"n"`
				Horizon     float64 `json:"horizon"`
				Rho         float64 `json:"rho"`
				MaxDelay    float64 `json:"max_delay"`
				BeaconEvery float64 `json:"beacon_every"`
				SampleEvery float64 `json:"sample_every"`
				Cells       []any   `json:"cells"`
			}{*seed, *n, *horizon, *rho, *delay, *beacon, *sample, cells}
		},
	}.run(sim.GradientExperiment(base))
}
