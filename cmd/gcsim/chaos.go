package main

import (
	"flag"
	"fmt"

	"gcs/internal/sim"
)

// runChaos implements `gcsim chaos`: sim.ChaosExperiment — every
// canonical fault plan (sim.ChaosPlans) crossed with ring, grid, and
// rotating-star scenarios — fanned across arena-backed workers. Every
// cell must actually inject disturbances AND re-converge inside its
// analytic skew bound before the horizon; any cell that does neither
// makes the command exit nonzero, which is the CI robustness gate.
// Results go to chaos_grid.csv and chaos_report.json.
func runChaos(args []string) {
	fs := flag.NewFlagSet("gcsim chaos", flag.ExitOnError)
	var (
		n        = fs.Int("n", 48, "nodes per cell")
		seed     = fs.Uint64("seed", 1, "base seed; each cell derives its own")
		horizon  = fs.Float64("horizon", 12, "simulated seconds per cell (faults stop at half)")
		workers  = fs.Int("workers", 0, "parallel workers across cells — never affects the reports (0 = GOMAXPROCS)")
		parallel = fs.Bool("parallel", false, "run every cell on the windowed engine: delay floor delay/4, 8 shards")
		out      = fs.String("out", ".", "directory for chaos_grid.csv and chaos_report.json")
	)
	parseFlags(fs, args)

	e := sim.ChaosExperiment(*n, *seed, *horizon, *parallel)
	w := sim.WorkerCount(*workers)
	grid{cmd: "chaos", out: *out, csvName: "chaos_grid.csv", jsonName: "chaos_report.json", workers: *workers,
		intro: fmt.Sprintf("chaos: %d cells (%d plans x 3 scenarios) across %d workers", len(e.Cells), len(sim.ChaosPlans()), w),
		report: func(cells []any) any {
			return struct {
				Seed     uint64  `json:"seed"`
				N        int     `json:"n"`
				Horizon  float64 `json:"horizon"`
				Parallel bool    `json:"parallel"`
				Workers  int     `json:"workers"`
				Cells    []any   `json:"cells"`
			}{*seed, *n, *horizon, *parallel, w, cells}
		},
	}.run(e)
}
