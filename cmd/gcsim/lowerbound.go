package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"gcs/internal/sim"
)

// runLowerBound implements `gcsim lowerbound`: it sweeps the Theorem 4.1
// two-chain adversarial scenario over several node counts, prints the
// observed-vs-analytic skew table, and dumps each run's skew series as
// CSV plus the full report as JSON for plotting. Serially (the default)
// one arena is reshaped across the whole sweep; with -workers > 1 the
// node counts fan across arena-backed goroutines, and results (CSV rows
// included) are emitted in sweep order — bit-identical to the serial
// output.
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
	// Validate flag values here so bad input gets a CLI error, not a
	// panic out of the sim layer's config invariants.
	if *rho <= 0 || *rho >= 1 {
		fail("lowerbound: -rho %v outside (0, 1)", *rho)
	}
	if *delay <= 0 {
		fail("lowerbound: -delay must be positive, got %v", *delay)
	}
	if *eps < 0 || *eps > *delay {
		fail("lowerbound: -eps %v outside [0, -delay=%v] (0 means delay/1000)", *eps, *delay)
	}
	if *beacon <= 0 || *sample <= 0 {
		fail("lowerbound: -beacon and -sample must be positive")
	}
	if *horizon < 0 {
		fail("lowerbound: -horizon must be nonnegative (0 derives it per n)")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("lowerbound: %v", err)
	}

	base := sim.LowerBoundConfig{
		Seed:        *seed,
		Rho:         *rho,
		MaxDelay:    *delay,
		Epsilon:     *eps,
		BeaconEvery: *beacon,
		SampleEvery: *sample,
		Horizon:     *horizon,
	}

	var csv strings.Builder
	csv.WriteString("n,t,min,max,skew\n")
	results := sim.LowerBoundSweepParallel(base, ns, *workers)
	fmt.Printf("%6s %8s %14s %14s %12s %12s\n",
		"n", "maxDist", "maxSkew", "finalSkew", "omega(n)", "upperBound")
	for _, res := range results {
		for _, p := range res.Series {
			fmt.Fprintf(&csv, "%d,%g,%g,%g,%g\n", res.N, p.T, p.Lo, p.Hi, p.Hi-p.Lo)
		}
		fmt.Printf("%6d %8d %14.6f %14.6f %12.6f %12.2f\n",
			res.N, res.MaxDist, res.MaxGlobalSkew, res.FinalGlobalSkew, res.OmegaSkew, res.UpperBound)
	}

	if len(results) > 1 {
		first, last := results[0], results[len(results)-1]
		ratio := last.MaxGlobalSkew / first.MaxGlobalSkew
		fmt.Printf("growth: skew(n=%d)/skew(n=%d) = %.2fx over a %.0fx increase in n\n",
			last.N, first.N, ratio, float64(last.N)/float64(first.N))
	}

	effEps := *eps
	if effEps == 0 {
		effEps = *delay / 1000
	}
	report := struct {
		Seed        uint64                 `json:"seed"`
		Rho         float64                `json:"rho"`
		MaxDelay    float64                `json:"max_delay"`
		Epsilon     float64                `json:"epsilon"`
		BeaconEvery float64                `json:"beacon_every"`
		SampleEvery float64                `json:"sample_every"`
		Results     []sim.LowerBoundResult `json:"results"`
	}{*seed, *rho, *delay, effEps, *beacon, *sample, results}
	csvPath, jsonPath := writeArtifacts("lowerbound", *out, "lowerbound_skew.csv", csv.String(), "lowerbound_report.json", report)
	fmt.Printf("wrote %s and %s\n", csvPath, jsonPath)
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
