// Command gcsim runs one gradient-clock-synchronization scenario and
// prints its SkewReport. It is the repo's executable surface: every
// scenario the test suite asserts on can be driven and inspected from
// the command line.
//
// Example:
//
//	go run ./cmd/gcsim -n 64 -horizon 100 -churn rotatingstar -period 2 -overlap 0.5
//
// -min-delay sets the message-delay floor (physics); above 0 the scenario
// runs on the windowed conservative parallel engine with that lookahead.
// -shards and -workers are execution: the report is bit-identical for
// every value. -parallel is shorthand for -shards 8 -min-delay delay/4:
//
//	go run ./cmd/gcsim -n 100000 -horizon 5 -parallel -shards 16
//
// The grid subcommands — `gradient` (the Section 5 gradient property),
// `lowerbound`, `chaos` and `sweep` — are flag parsers over one
// sim.Experiment each: a grid, a per-cell and a grid verdict, and each
// cell's table, CSV and JSON row. One path (grid.run) runs it across
// -workers arena-backed goroutines (output bit-identical for every
// value), prints the table, writes the CSV and JSON into -out and exits
// nonzero on the verdict:
//
//	go run ./cmd/gcsim gradient -n 36 -out .
//
// The `lowerbound` subcommand runs the Theorem 4.1 adversarial scenario
// (two chains, layered rate schedules, asymmetric per-chain delays) over a
// sweep of node counts, dumps the skew time series as CSV plus a JSON
// report for plotting, and fails unless every n brackets its max global
// skew between omega(n) and the upper bound and the skew grows at least
// half as fast as n — the Omega(n) global skew:
//
//	go run ./cmd/gcsim lowerbound -n 32,64,128,256 -out .
//
// The `sweep` subcommand runs a general scenario grid (node counts x
// topologies x drivers x churn), locally or through a gcsimd instance
// (-daemon URL), and checks every cell against its analytic skew bound:
//
//	go run ./cmd/gcsim sweep -n 1024,4096 -topos ring,grid -workers 4 -out .
//
// The `chaos` subcommand runs the fault-injection grid — every fault
// plan crossed with ring, grid, and rotating-star scenarios — and fails
// unless every cell injects faults and re-converges inside its analytic
// bound. Individual scenarios take the same fault plan via -fault-*
// flags (also accepted by sweep and gradient):
//
//	go run ./cmd/gcsim chaos -n 48 -horizon 12 -out .
//	go run ./cmd/gcsim -n 64 -fault-drop 0.2 -fault-crash-every 5
//
// The `realtime` subcommand runs the scenario on the goroutine-per-node
// real-time runtime (internal/rt) instead of the DES: one simulated
// second is one wall second, so keep the horizon short:
//
//	go run ./cmd/gcsim realtime -n 16 -horizon 5 -driver bangbang
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gcs/internal/des"
	"gcs/internal/sim"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "lowerbound":
			runLowerBound(os.Args[2:])
			return
		case "gradient":
			runGradient(os.Args[2:])
			return
		case "sweep":
			runSweep(os.Args[2:])
			return
		case "chaos":
			runChaos(os.Args[2:])
			return
		case "realtime":
			runRealtime(os.Args[2:])
			return
		}
	}
	runScenario()
}

func runScenario() {
	var (
		sf     = addScenarioFlags(flag.CommandLine, 30)
		events = flag.Bool("events", false, "print a per-label event breakdown (via the DES trace hook)")

		parallel = flag.Bool("parallel", false, "shorthand: -shards 8 and -min-delay delay/4 where unset")
		shards   = flag.Int("shards", 0, "shard count of the windowed engine; needs -min-delay or -parallel — never affects the report (0 = 1)")
		workers  = flag.Int("workers", 0, "worker goroutines of the windowed engine — never affects the report (0 = GOMAXPROCS)")
		minDelay = flag.Float64("min-delay", 0, "message-delay floor, physics: above 0 it is the windowed engine's lookahead (0 = none, delay/4 with -parallel)")
	)
	parseFlags(flag.CommandLine, os.Args[1:])

	cfg, err := sf.config()
	if err != nil {
		fail("%v", err)
	}
	cfg.Parallel, cfg.Shards, cfg.Workers, cfg.MinDelay = *parallel, *shards, *workers, *minDelay
	// The harness boundary returns configuration errors instead of
	// panicking; sim.New below only ever sees a validated config.
	if err := cfg.Validate(); err != nil {
		fail("%v", err)
	}

	s := sim.New(cfg)
	// One count table per engine, since shard windows run concurrently. On
	// the serial engine the global engine is Shard(0), so it is hooked once.
	var counts []map[string]uint64
	for i := 0; *events && i <= s.P.NumShards(); i++ {
		en, m := s.Engine, map[string]uint64{}
		if i < s.P.NumShards() {
			en = s.P.Shard(i)
		} else if en == s.P.Shard(0) {
			break
		}
		counts = append(counts, m)
		en.SetTraceHook(func(_ des.Time, label string) { m[label]++ })
	}
	rpt := s.Run()
	eff := cfg.WithDefaults()
	eff.Workers = sim.WorkerCount(eff.Workers)
	printReport("scenario:", eff, rpt)

	if *events {
		eventCounts := map[string]uint64{}
		for _, m := range counts {
			for l, c := range m {
				eventCounts[l] += c
			}
		}
		labels := make([]string, 0, len(eventCounts))
		for l := range eventCounts {
			labels = append(labels, l)
		}
		sort.Slice(labels, func(i, j int) bool {
			if eventCounts[labels[i]] != eventCounts[labels[j]] {
				return eventCounts[labels[i]] > eventCounts[labels[j]]
			}
			return labels[i] < labels[j]
		})
		fmt.Println("events by label:")
		for _, l := range labels {
			fmt.Printf("  %-24s %d\n", l, eventCounts[l])
		}
	}
	gate(eff, rpt, 1)
}

// parseFlags parses args into fs and rejects whatever is left over, so a
// misspelt subcommand or a stray argument fails instead of silently
// running the default scenario.
func parseFlags(fs *flag.FlagSet, args []string) {
	fs.Parse(args)
	if fs.NArg() > 0 {
		fail("unknown subcommand or argument %q", fs.Arg(0))
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gcsim: "+format+"\n", args...)
	os.Exit(1)
}

// grid is one run of a grid subcommand: where its artifacts go and how
// its JSON report wraps the cells' rows.
type grid struct {
	// cmd names the subcommand in every message.
	cmd                    string
	out, csvName, jsonName string
	workers                int
	// intro, when set, is printed before the run, and the "wrote" line
	// then repeats the cell count.
	intro string
	// fetch, when set, supplies the results instead of running the cells
	// here (`sweep -daemon`).
	fetch func() []sim.SweepResult
	// report wraps the cells' JSON rows into the JSON report.
	report func(cells []any) any
}

// run executes e and ends the command the way every grid subcommand
// ends: the table, the verdict's note, the CSV and the JSON report
// (newline-terminated) in the -out directory, then the verdict — an
// "ok:" line, or a nonzero exit.
func (g grid) run(e sim.Experiment) {
	if err := os.MkdirAll(g.out, 0o755); err != nil {
		fail("%s: %v", g.cmd, err)
	}
	if g.intro != "" {
		fmt.Println(g.intro)
	}
	start := time.Now()
	var rows []sim.Row
	if g.fetch != nil {
		for _, res := range g.fetch() {
			rows = append(rows, e.Judge(res, nil))
		}
	} else {
		var err error
		if rows, err = e.Run(g.workers); err != nil {
			fail("%s: %v", g.cmd, err)
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d cells in %.2fs\n", g.cmd, len(rows), time.Since(start).Seconds())

	csv := []byte(e.CSV + "\n")
	cells := make([]any, len(rows))
	fmt.Println(e.Table)
	for i, r := range rows {
		fmt.Println(r.Table)
		csv = append(csv, r.CSV...)
		cells[i] = r.JSON
	}
	note, verdict := e.Verdict(rows)
	if note != "" {
		fmt.Println(note)
	}
	csvPath, jsonPath := filepath.Join(g.out, g.csvName), filepath.Join(g.out, g.jsonName)
	data, err := json.MarshalIndent(g.report(cells), "", "  ")
	if err == nil {
		err = os.WriteFile(csvPath, csv, 0o644)
	}
	if err == nil {
		err = os.WriteFile(jsonPath, append(data, '\n'), 0o644)
	}
	if err != nil {
		fail("%s: %v", g.cmd, err)
	}
	if g.intro != "" {
		fmt.Printf("wrote %s and %s (%d cells)\n", csvPath, jsonPath, len(rows))
	} else {
		fmt.Printf("wrote %s and %s\n", csvPath, jsonPath)
	}
	if verdict != nil {
		fail("%s: %v", g.cmd, verdict)
	}
	fmt.Println(e.OK)
}
