// Command benchmark is the repository's benchmark: six workloads, five
// end-to-end metrics measured with tracing off, and a separate traced
// run for the per-layer numbers. It measures every layer from outside,
// through public functions only. README.md in this directory has the
// tables; BENCHMARK.json at the repository root is the contract.
//
//	go run ./benchmark                                  # all workloads, end-to-end metrics
//	go run ./benchmark -trace 1                         # the traced run: per-layer metrics
//	go run ./benchmark -workload ring1k_serial -seed 7  # one workload
//	go run ./benchmark -compare a/result.json b/result.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics (one such line per workload
// when several run). The exit code is nonzero when any check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		o        options
		workload string
		trace    int
		compare  bool
	)
	fs.StringVar(&workload, "workload", "", "comma-separated workloads to run (default: all six)")
	fs.StringVar(&workload, "only", "", "alias of -workload")
	fs.Uint64Var(&o.seed, "seed", 1, "seed every workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 15, "host seconds of measuring per workload")
	fs.IntVar(&o.reps, "reps", 0, "fixed number of warm reps per workload (0: as many as fit in -seconds, at least 3)")
	fs.IntVar(&trace, "trace", 0, "1: the traced run, which reports the per-layer metrics instead of the end-to-end ones")
	fs.BoolVar(&o.probes, "probes", true, "with -trace 1, also run the layer probes")
	fs.BoolVar(&o.smoke, "smoke", false, "toy sizes and one rep: checks structure, never timings")
	fs.StringVar(&o.outDir, "out", "bench-out", "directory for result.json and trace_<workload>.json")
	fs.StringVar(&o.workdir, "workdir", "", "directory for the daemon workload's WAL (default: <out>/work)")
	fs.BoolVar(&compare, "compare", false, "compare two result files: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || trace < 0 || trace > 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	if workload != "" {
		o.names = strings.Split(workload, ",")
	}
	o.trace = trace == 1
	if o.workdir == "" {
		o.workdir = filepath.Join(o.outDir, "work")
	}
	if o.smoke && o.reps == 0 {
		o.reps = 1
	}

	hdr := newHeader(o)
	results, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	hdr.End = time.Now().UTC().Format(time.RFC3339)
	if err := writeResults(o.outDir, resultFile{Header: hdr, Results: results}); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := printResults(stdout, results, o.trace); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return exitCode(results)
}

// exitCode is nonzero when any operation of any workload failed.
func exitCode(results []result) int {
	for _, r := range results {
		if r.Failed > 0 {
			return 1
		}
	}
	return 0
}

// header records where and how a result file was produced.
type header struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Smoke      bool    `json:"smoke"`
	Start      string  `json:"start"`
	End        string  `json:"end"`
}

func newHeader(o options) header {
	return header{
		CPU: cpuModel(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: workers(), GoVersion: runtime.Version(), Revision: revision(),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
		Start: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, model, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(model)
		}
	}
	return "unknown"
}

// revision is what `git rev-parse --short HEAD` prints, read from .git
// in the working directory so that no process is started and nothing
// outside the checkout is touched; "unknown" in an exported tree.
func revision() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown" // a packed ref; not worth a parser
		}
		rev = strings.TrimSpace(string(data))
	}
	return rev[:min(7, len(rev))]
}

// resultFile is what -out receives and -compare reads.
type resultFile struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

func writeResults(dir string, f resultFile) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "result.json"), data, 0o644)
}

// line is the contract's result line for one workload.
type line struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]lineValue `json:"metrics"`
}

type lineValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printResults prints one line per metric — workload, name, value, unit,
// sample count — then the exact counts, the failed checks, and last the
// result line of each workload.
func printResults(w io.Writer, results []result, trace bool) error {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, r := range results {
		for _, d := range defs {
			if v, ok := r.Metrics[d.Name]; ok {
				fmt.Fprintf(w, "%-17s %-38s %14s  %-8s n=%d%s\n", r.Workload, d.Name, number(v.Value), v.Unit, v.N, spreadNote(v))
			}
		}
		c := r.Counts
		fmt.Fprintf(w, "%-17s counts: events=%d delivered=%d edge_adds=%d distance_recomputes=%d report_digest=%s\n",
			r.Workload, c.Events, c.Delivered, c.EdgeAdds, c.DistanceRecomputes, c.ReportDigest)
		fmt.Fprintf(w, "%-17s checks: attempted=%d failed=%d fail_frac=%g reps=%d\n",
			r.Workload, r.Attempted, r.Failed, r.FailFrac, r.Reps)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "%-17s FAILED %s\n", r.Workload, n)
		}
	}
	for _, r := range results {
		l := line{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]lineValue{}}
		for name, v := range r.Metrics {
			l.Metrics[name] = lineValue{Value: v.Value, Unit: v.Unit}
		}
		data, err := json.Marshal(l)
		if err != nil {
			return fmt.Errorf("%s: result line: %w", r.Workload, err) // a metric is NaN or infinite
		}
		fmt.Fprintf(w, "%s\n", data)
	}
	return nil
}

// number prints whole numbers — the exact counts — in full and
// everything else to six significant digits.
func number(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 6, 64)
}

func spreadNote(v value) string {
	if v.Summary == nil || v.Summary.N < 2 {
		return ""
	}
	s := v.Summary
	return fmt.Sprintf("  min=%.6g q1=%.6g q3=%.6g max=%.6g", s.Min, s.Q1, s.Q3, s.Max)
}
