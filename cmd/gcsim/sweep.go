package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"gcs/internal/jobd"
	"gcs/internal/sim"
)

// sweepRow is one grid cell's outcome in the JSON report.
type sweepRow struct {
	Scenario       string  `json:"scenario"`
	Topology       string  `json:"topology"`
	Driver         string  `json:"driver"`
	Churn          string  `json:"churn"`
	N              int     `json:"n"`
	Seed           uint64  `json:"seed"`
	MaxGlobalSkew  float64 `json:"max_global_skew"`
	FinalSkew      float64 `json:"final_global_skew"`
	Bound          float64 `json:"bound"`
	Jumps          int     `json:"jumps"`
	Sent           uint64  `json:"sent"`
	Delivered      uint64  `json:"delivered"`
	Dropped        uint64  `json:"dropped"`
	EventsExecuted uint64  `json:"events_executed"`
	// Faults counts injected disturbances; ReconvergenceTime is -1 when
	// the cell never re-entered its bound (JSON has no +Inf). Both are
	// zero for unfaulted sweeps.
	Faults            uint64  `json:"faults"`
	ReconvergenceTime float64 `json:"reconvergence_time"`
	Violated          bool    `json:"violated"`
}

// runSweep implements `gcsim sweep`: a general scenario grid — node
// counts x topologies x drivers x churn processes — expanded by
// jobd.SweepSpec (the same expansion the sweep service uses, so local
// runs and daemon runs name, seed, and order their cells identically)
// and fanned across arena-backed workers (sim.RunSweep). Each cell
// gets a deterministic per-cell seed derived from -seed and its grid
// index, so the sweep is reproducible and bit-identical for every
// -workers value. With -daemon URL the grid is instead submitted to a
// running gcsimd instance and the stored results are fetched back —
// determinism makes the two paths byte-identical. Every cell's
// observed global skew is checked against its analytic bound; any
// violation makes the command exit nonzero. Results are printed as a
// table and dumped to sweep_results.csv and sweep_report.json.
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
	if err := os.MkdirAll(*out, 0o755); err != nil {
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
	cells, err := spec.ValidCells()
	if err != nil {
		fail("sweep: %v", err)
	}

	w := *workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	var results []sim.SweepResult
	start := time.Now()
	if *daemon != "" {
		fmt.Printf("sweep: %d cells via daemon %s\n", len(cells), *daemon)
		results = daemonSweep(*daemon, spec, len(cells))
	} else {
		fmt.Printf("sweep: %d cells across %d workers\n", len(cells), w)
		results, err = sim.RunSweep(cells, *workers)
		if err != nil {
			fail("sweep: %v", err)
		}
	}
	fmt.Fprintf(os.Stderr, "sweep: %d cells in %.2fs\n", len(results), time.Since(start).Seconds())

	var csv strings.Builder
	csv.WriteString("scenario,topology,driver,churn,n,seed,max_global_skew,final_skew,bound,jumps,sent,delivered,dropped,events,faults,reconvergence_time,violated\n")
	rows := make([]sweepRow, 0, len(results))
	violations := 0
	fmt.Printf("%-40s %12s %12s %10s %12s\n",
		"scenario", "maxSkew", "bound", "jumps", "events")
	for _, res := range results {
		rpt := res.Report
		topoName := res.Cfg.Topology.Kind.String()
		if res.Cfg.Churn.Kind == sim.ChurnRotatingStar {
			topoName = "-"
		}
		row := sweepRow{
			Scenario:       res.Name,
			Topology:       topoName,
			Driver:         res.Cfg.Driver.Kind.String(),
			Churn:          res.Cfg.Churn.Kind.String(),
			N:              res.Cfg.N,
			Seed:           res.Cfg.Seed,
			MaxGlobalSkew:  rpt.MaxGlobalSkew,
			FinalSkew:      rpt.FinalGlobalSkew,
			Bound:          rpt.Bound,
			Jumps:          rpt.TotalJumps,
			Sent:           rpt.Transport.Sent,
			Delivered:      rpt.Transport.Delivered,
			Dropped:        rpt.Transport.Dropped,
			EventsExecuted: rpt.EventsExecuted,
			Faults:         rpt.Faults.Total(),
			Violated:       rpt.MaxGlobalSkew > rpt.Bound,
		}
		if res.Cfg.Faults.Enabled() {
			// Faulted cells are allowed transient bound breaches; the gate
			// is whether the cell re-converged after the last fault.
			row.ReconvergenceTime = rpt.ReconvergenceTime
			row.Violated = math.IsInf(rpt.ReconvergenceTime, 1)
			if row.Violated {
				row.ReconvergenceTime = -1
			}
		}
		if row.Violated {
			violations++
		}
		rows = append(rows, row)
		fmt.Fprintf(&csv, "%s,%s,%s,%s,%d,%d,%g,%g,%g,%d,%d,%d,%d,%d,%d,%g,%t\n",
			row.Scenario, row.Topology, row.Driver, row.Churn, row.N, row.Seed,
			row.MaxGlobalSkew, row.FinalSkew, row.Bound, row.Jumps,
			row.Sent, row.Delivered, row.Dropped, row.EventsExecuted,
			row.Faults, row.ReconvergenceTime, row.Violated)
		fmt.Printf("%-40s %12.6f %12.4f %10d %12d\n",
			row.Scenario, row.MaxGlobalSkew, row.Bound, row.Jumps, row.EventsExecuted)
	}

	report := struct {
		Seed        uint64     `json:"seed"`
		Horizon     float64    `json:"horizon"`
		Rho         float64    `json:"rho"`
		MaxDelay    float64    `json:"max_delay"`
		BeaconEvery float64    `json:"beacon_every"`
		SampleEvery float64    `json:"sample_every"`
		Workers     int        `json:"workers"`
		Cells       []sweepRow `json:"cells"`
	}{*seed, *horizon, *rho, *delay, *beacon, *sample, w, rows}
	csvPath, jsonPath := writeArtifacts("sweep", *out, "sweep_results.csv", csv.String(), "sweep_report.json", report)
	fmt.Printf("wrote %s and %s (%d cells)\n", csvPath, jsonPath, len(rows))

	if violations > 0 {
		fail("sweep: %d cell(s) exceeded the analytic global skew bound (or, with faults, never re-converged)", violations)
	}
	fmt.Println("ok: global skew within the analytic bound on every cell")
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
