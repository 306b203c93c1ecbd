package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"gcs/internal/sim"
)

// chaosRow is one chaos-grid cell's outcome in the JSON report.
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
	// skew re-entered the analytic bound; -1 when it never did (JSON has
	// no +Inf).
	ReconvergenceTime float64 `json:"reconvergence_time"`
}

// runChaos implements `gcsim chaos`: the fault-injection grid — every
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
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("chaos: %v", err)
	}

	cells := sim.ChaosGrid(*n, *seed, *horizon, *parallel)
	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("chaos: %d cells (%d plans x 3 scenarios) across %d workers\n",
		len(cells), len(sim.ChaosPlans()), w)
	start := time.Now()
	results, err := sim.RunSweep(cells, *workers)
	if err != nil {
		fail("chaos: %v", err)
	}
	fmt.Fprintf(os.Stderr, "chaos: %d cells in %.2fs\n", len(results), time.Since(start).Seconds())

	var csv strings.Builder
	csv.WriteString("scenario,n,seed,max_global_skew,bound,drops,dups,delay_spikes,crashes,recoveries,rate_excursions,last_fault_t,reconverged,reconvergence_time\n")
	rows := make([]chaosRow, 0, len(results))
	failures := 0
	fmt.Printf("%-16s %10s %10s %7s %7s %7s %8s %7s %7s %10s %11s\n",
		"cell", "maxSkew", "bound", "drops", "dups", "spikes", "crashes", "recov", "rates", "lastFault", "reconverge")
	for _, res := range results {
		rpt := res.Report
		fst := rpt.Faults
		row := chaosRow{
			Scenario:          res.Name,
			N:                 res.Cfg.N,
			Seed:              res.Cfg.Seed,
			MaxGlobalSkew:     rpt.MaxGlobalSkew,
			Bound:             rpt.Bound,
			Drops:             fst.Drops,
			Dups:              fst.Dups,
			DelaySpikes:       fst.DelaySpikes,
			Crashes:           fst.Crashes,
			Recoveries:        fst.Recoveries,
			RateExcursions:    fst.RateExcursions,
			LastFaultT:        fst.LastFaultT,
			Reconverged:       !math.IsInf(rpt.ReconvergenceTime, 1),
			ReconvergenceTime: rpt.ReconvergenceTime,
		}
		if !row.Reconverged {
			row.ReconvergenceTime = -1
		}
		// The gate: every cell must inject at least one disturbance (a
		// quiet cell means the plan is broken) and re-enter its bound.
		if fst.Total() == 0 || !row.Reconverged {
			failures++
		}
		rows = append(rows, row)
		fmt.Fprintf(&csv, "%s,%d,%d,%g,%g,%d,%d,%d,%d,%d,%d,%g,%t,%g\n",
			row.Scenario, row.N, row.Seed, row.MaxGlobalSkew, row.Bound,
			row.Drops, row.Dups, row.DelaySpikes, row.Crashes, row.Recoveries,
			row.RateExcursions, row.LastFaultT, row.Reconverged, row.ReconvergenceTime)
		rc := fmt.Sprintf("%.4fs", row.ReconvergenceTime)
		if !row.Reconverged {
			rc = "NEVER"
		}
		fmt.Printf("%-16s %10.6f %10.4f %7d %7d %7d %8d %7d %7d %10.3f %11s\n",
			row.Scenario, row.MaxGlobalSkew, row.Bound,
			row.Drops, row.Dups, row.DelaySpikes, row.Crashes, row.Recoveries,
			row.RateExcursions, row.LastFaultT, rc)
	}

	report := struct {
		Seed     uint64     `json:"seed"`
		N        int        `json:"n"`
		Horizon  float64    `json:"horizon"`
		Parallel bool       `json:"parallel"`
		Workers  int        `json:"workers"`
		Cells    []chaosRow `json:"cells"`
	}{*seed, *n, *horizon, *parallel, w, rows}
	csvPath, jsonPath := writeArtifacts("chaos", *out, "chaos_grid.csv", csv.String(), "chaos_report.json", report)
	fmt.Printf("wrote %s and %s (%d cells)\n", csvPath, jsonPath, len(rows))

	if failures > 0 {
		fail("chaos: %d cell(s) failed the gate (no faults injected, or no re-convergence)", failures)
	}
	fmt.Println("ok: every chaos cell injected faults and re-converged inside its analytic bound")
}
