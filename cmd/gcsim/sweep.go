package main

import (
	"flag"
	"fmt"
	"strings"

	"gcs/internal/jobd"
	"gcs/internal/sim"
)

// runSweep implements `gcsim sweep`: a general scenario grid — node
// counts x topologies x drivers x churn processes — expanded by
// jobd.SweepSpec (the same expansion the sweep service uses, so local
// runs and daemon runs name, seed, and order their cells identically)
// and run as sim.SweepExperiment across arena-backed workers. Each cell
// gets a deterministic per-cell seed derived from -seed and its grid
// index, so the sweep is reproducible and bit-identical for every
// -workers value. With -daemon URL the grid is instead submitted to a
// running gcsimd instance and the stored results are fetched back and
// judged like local ones — determinism makes the two paths
// byte-identical. Every cell's observed global skew is checked against
// its analytic bound (re-convergence when faulted); any violation makes
// the command exit nonzero. Results are printed as a table and dumped to
// sweep_results.csv and sweep_report.json.
func runSweep(args []string) {
	fs := flag.NewFlagSet("gcsim sweep", flag.ExitOnError)
	var (
		nsFlag   = fs.String("n", "256,1024", "comma-separated node counts")
		topos    = fs.String("topos", "ring,grid", "comma-separated topologies: line|ring|star|grid|complete")
		drivers  = fs.String("drivers", "randomwalk,bangbang", "comma-separated drivers: constant|randomwalk|bangbang")
		churns   = fs.String("churns", "none", "comma-separated churn processes: none|volatile|rotatingstar")
		seed     = fs.Uint64("seed", 1, "base seed; each cell derives its own")
		horizon  = fs.Float64("horizon", 10, "simulated seconds per cell")
		rho      = fs.Float64("rho", 0.01, "hardware clock drift bound")
		delay    = fs.Float64("delay", 0.01, "message delay bound (seconds)")
		beacon   = fs.Float64("beacon", 0.1, "beacon interval (hardware time)")
		sample   = fs.Float64("sample", 0.1, "skew sampling period (real time)")
		interval = fs.Float64("interval", 1, "driver rate-change interval")
		workers  = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		parallel = fs.Bool("parallel", false, "run every cell on the windowed engine: delay floor delay/4, 8 shards")
		shards   = fs.Int("shards", 0, "shard count per cell with -parallel — never affects a report (0 = 8)")
		daemon   = fs.String("daemon", "", "submit the sweep to a gcsimd instance at this base URL instead of running locally")
		out      = fs.String("out", ".", "directory for sweep_results.csv and sweep_report.json")
	)
	faults := addFaultFlags(fs)
	parseFlags(fs, args)

	ns, err := parseNs(*nsFlag)
	if err != nil {
		fail("sweep: %v", err)
	}
	spec := jobd.SweepSpec{
		Ns:       ns,
		Topos:    splitList(*topos),
		Drivers:  splitList(*drivers),
		Churns:   splitList(*churns),
		Seed:     *seed,
		Horizon:  *horizon,
		Rho:      *rho,
		MaxDelay: *delay,
		Beacon:   *beacon,
		Sample:   *sample,
		Interval: *interval,
		Parallel: *parallel,
		Shards:   *shards,
		Faults:   *faults,
	}
	cells, err := spec.Cells()
	if err == nil {
		err = sim.ValidateCells(cells)
	}
	if err != nil {
		fail("sweep: %v", err)
	}

	g := grid{cmd: "sweep", out: *out, csvName: "sweep_results.csv", jsonName: "sweep_report.json", workers: *workers,
		intro: fmt.Sprintf("sweep: %d cells across %d workers", len(cells), sim.WorkerCount(*workers)),
		report: func(cells []any) any {
			return struct {
				Seed        uint64  `json:"seed"`
				Horizon     float64 `json:"horizon"`
				Rho         float64 `json:"rho"`
				MaxDelay    float64 `json:"max_delay"`
				BeaconEvery float64 `json:"beacon_every"`
				SampleEvery float64 `json:"sample_every"`
				Workers     int     `json:"workers"`
				Cells       []any   `json:"cells"`
			}{*seed, *horizon, *rho, *delay, *beacon, *sample, sim.WorkerCount(*workers), cells}
		},
	}
	if *daemon != "" {
		g.intro = fmt.Sprintf("sweep: %d cells via daemon %s", len(cells), *daemon)
		g.fetch = func() []sim.SweepResult { return daemonSweep(*daemon, spec, len(cells)) }
	}
	g.run(sim.SweepExperiment(cells))
}

// splitList splits a comma-separated flag into trimmed nonempty parts.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	if len(out) == 0 {
		fail("sweep: empty list flag")
	}
	return out
}
