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
// The `lowerbound` subcommand runs the Theorem 4.1 adversarial scenario
// (two chains, layered rate schedules, asymmetric per-chain delays) over a
// sweep of node counts, demonstrating the Omega(n) global skew, and
// dumps the skew time series as CSV plus a JSON report for plotting:
//
//	go run ./cmd/gcsim lowerbound -n 32,64,128,256 -out .
//
// The `sweep` subcommand fans a general scenario grid (node counts x
// topologies x drivers x churn) across parallel arena-backed workers,
// checks every cell against its analytic skew bound, and dumps the grid
// as CSV + JSON; output is bit-identical for every -workers value:
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
	"runtime"
	"sort"

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
	if eff.Workers <= 0 {
		eff.Workers = runtime.GOMAXPROCS(0)
	}
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

// writeArtifacts writes a subcommand's CSV table and then its indented
// JSON report, newline-terminated, into dir and returns both paths. Any
// error fails the command under its name.
func writeArtifacts(cmd, dir, csvName, csv, jsonName string, report any) (csvPath, jsonPath string) {
	csvPath, jsonPath = filepath.Join(dir, csvName), filepath.Join(dir, jsonName)
	if err := os.WriteFile(csvPath, []byte(csv), 0o644); err != nil {
		fail("%s: %v", cmd, err)
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail("%s: %v", cmd, err)
	}
	if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
		fail("%s: %v", cmd, err)
	}
	return csvPath, jsonPath
}
