package sim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// A SweepCell is one scenario of a sweep grid: a display name plus the
// full config to run. Every cell is independent — the config (including
// its Seed) completely determines the execution — which is what makes
// the parallel runner trivially bit-identical to serial order.
type SweepCell struct {
	Name string
	Cfg  Config
}

// SweepResult pairs a cell with its finished report. Cfg is the
// defaulted config the run actually used, so consumers can evaluate
// analytic bounds (GradientBound, GlobalSkewBound) without re-deriving
// defaults.
type SweepResult struct {
	Name   string
	Cfg    Config
	Report SkewReport
}

// CellSeed derives a per-cell seed from a base seed and the cell's grid
// index, so sweep grids get decorrelated streams without the caller
// hand-picking seeds. The mix is SplitMix64's increment, the same
// constant des.Rand forks with.
func CellSeed(base uint64, index int) uint64 {
	return base + 0x9e3779b97f4a7c15*uint64(index+1)
}

// RunSweep executes every cell and returns one result per cell, in cell
// order. Cells are fanned across workers goroutines (<= 0 means
// GOMAXPROCS), each owning a private Arena, so per-run wiring is reused
// within a worker and nothing is shared between workers. Because each
// cell's execution depends only on its config, the output is
// bit-identical for every worker count — including workers == 1, the
// serial order — which TestSweepParallelBitIdentical pins.
//
// Every cell is validated before any runs (ValidateCells): a malformed
// config fails the whole sweep, with no results.
func RunSweep(cells []SweepCell, workers int) ([]SweepResult, error) {
	return runCells(cells, workers, nil)
}

// ValidateCells validates every cell's config and returns nil, or an
// error joining every invalid cell's, so a grid is accepted or rejected
// whole before any cell runs.
func ValidateCells(cells []SweepCell) error {
	var errs []error
	for i := range cells {
		if err := cells[i].Cfg.Validate(); err != nil {
			errs = append(errs, fmt.Errorf("sweep cell %d (%s): %w", i, cells[i].Name, err))
		}
	}
	return errors.Join(errs...)
}

// runCells is RunSweep's worker pool. judge, when non-nil, reads cell
// i's finished run on its worker, before the worker's arena rewires the
// simulation for the next cell.
func runCells(cells []SweepCell, workers int, judge func(i int, res SweepResult, s *Simulation)) ([]SweepResult, error) {
	if err := ValidateCells(cells); err != nil {
		return nil, err
	}
	out := make([]SweepResult, len(cells))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(cells)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				s := a.Sim(cells[i].Cfg)
				out[i] = SweepResult{Name: cells[i].Name, Cfg: s.Cfg, Report: s.Run()}
				if judge != nil {
					judge(i, out[i], s)
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}

// An Experiment is one gated grid as data: the cells to run, how one
// finished cell is judged and printed, and how the grid is judged as a
// whole. The four kinds are GradientExperiment (Section 5),
// LowerBoundExperiment (Theorem 4.1), ChaosExperiment and
// SweepExperiment; `gcsim` prints every kind's table, writes its CSV and
// JSON and exits on its verdict through one path.
type Experiment struct {
	Cells []SweepCell
	// Table and CSV are the header lines of the printed table and of the
	// CSV file.
	Table, CSV string
	// Judge reads one finished cell into its row. s is the simulation
	// that ran it, still holding its skew series, or nil for a result
	// read back from a store: only kinds whose Judge ignores s can be
	// judged that way.
	Judge func(res SweepResult, s *Simulation) Row
	// Fail completes the verdict "<count> <Fail>" when a cell failed.
	Fail string
	// Grid, when set, judges the rows as a whole: note is printed under
	// the table and a non-nil error fails the experiment.
	Grid func(rows []Row) (note string, err error)
	// OK is the line a passing experiment ends on.
	OK string
}

// A Row is one judged cell: its table line, its CSV lines (each
// newline-terminated), its JSON row and whether it failed its gate.
type Row struct {
	Table, CSV string
	JSON       any
	Failed     bool
}

// Run executes the cells on RunSweep's worker pool, judging each cell
// on its worker, and returns the rows in cell order, bit-identical for
// every workers value. An invalid cell fails the whole experiment
// before any cell runs.
func (e Experiment) Run(workers int) ([]Row, error) {
	rows := make([]Row, len(e.Cells))
	judge := func(i int, res SweepResult, s *Simulation) { rows[i] = e.Judge(res, s) }
	if _, err := runCells(e.Cells, workers, judge); err != nil {
		return nil, err
	}
	return rows, nil
}

// Verdict judges the experiment from its rows: note is Grid's summary
// line ("" without one), and err names the failed cells, else Grid's
// failure.
func (e Experiment) Verdict(rows []Row) (note string, err error) {
	if e.Grid != nil {
		note, err = e.Grid(rows)
	}
	failed := 0
	for _, r := range rows {
		if r.Failed {
			failed++
		}
	}
	if failed > 0 {
		err = fmt.Errorf("%d %s", failed, e.Fail)
	}
	return note, err
}

// violated is the gate every kind shares: a faulted run may breach its
// bound while faults fire, so it fails only if its global skew never
// re-entered the bound after the last fault; an unfaulted run fails
// when it breached the kind's bound.
func violated(cfg Config, rpt SkewReport, breached bool) bool {
	if cfg.Faults.Enabled() {
		return math.IsInf(rpt.ReconvergenceTime, 1)
	}
	return breached
}

// reconvergence is the report's ReconvergenceTime as a JSON row holds
// it: -1 when the run never re-converged (JSON has no +Inf).
func reconvergence(rpt SkewReport) float64 {
	if math.IsInf(rpt.ReconvergenceTime, 1) {
		return -1
	}
	return rpt.ReconvergenceTime
}

// topologyLabel is the topology column of a row: the rotating star
// ignores the topology spec, so labeling it with the zero spec's kind
// would be wrong.
func topologyLabel(cfg Config) string {
	if cfg.Churn.Kind == ChurnRotatingStar {
		return "-"
	}
	return cfg.Topology.Kind.String()
}

// sweepRow is one sweep cell's JSON row.
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
	// the cell never re-entered its bound. Both are zero for unfaulted
	// cells.
	Faults            uint64  `json:"faults"`
	ReconvergenceTime float64 `json:"reconvergence_time"`
	Violated          bool    `json:"violated"`
}

// SweepExperiment judges a general scenario grid — jobd.SweepSpec's
// cells, node counts x topologies x drivers x churn — cell by cell
// against its analytic global skew bound (re-convergence when faulted).
// Its Judge ignores the simulation, so results read back from the sweep
// daemon are judged like local ones.
func SweepExperiment(cells []SweepCell) Experiment {
	return Experiment{
		Cells: cells,
		Table: fmt.Sprintf("%-40s %12s %12s %10s %12s", "scenario", "maxSkew", "bound", "jumps", "events"),
		CSV:   "scenario,topology,driver,churn,n,seed,max_global_skew,final_skew,bound,jumps,sent,delivered,dropped,events,faults,reconvergence_time,violated",
		Fail:  "cell(s) exceeded the analytic global skew bound (or, with faults, never re-converged)",
		OK:    "ok: global skew within the analytic bound on every cell",
		Judge: func(res SweepResult, _ *Simulation) Row {
			cfg, rpt := res.Cfg, res.Report
			r := sweepRow{
				Scenario: res.Name, Topology: topologyLabel(cfg),
				Driver: cfg.Driver.Kind.String(), Churn: cfg.Churn.Kind.String(), N: cfg.N, Seed: cfg.Seed,
				MaxGlobalSkew: rpt.MaxGlobalSkew, FinalSkew: rpt.FinalGlobalSkew, Bound: rpt.Bound, Jumps: rpt.TotalJumps,
				Sent: rpt.Transport.Sent, Delivered: rpt.Transport.Delivered, Dropped: rpt.Transport.Dropped,
				EventsExecuted: rpt.EventsExecuted, Faults: rpt.Faults.Total(),
				Violated: violated(cfg, rpt, rpt.MaxGlobalSkew > rpt.Bound),
			}
			if cfg.Faults.Enabled() {
				r.ReconvergenceTime = reconvergence(rpt)
			}
			return Row{
				Table: fmt.Sprintf("%-40s %12.6f %12.4f %10d %12d", r.Scenario, r.MaxGlobalSkew, r.Bound, r.Jumps, r.EventsExecuted),
				CSV: fmt.Sprintf("%s,%s,%s,%s,%d,%d,%g,%g,%g,%d,%d,%d,%d,%d,%d,%g,%t\n",
					r.Scenario, r.Topology, r.Driver, r.Churn, r.N, r.Seed, r.MaxGlobalSkew, r.FinalSkew, r.Bound,
					r.Jumps, r.Sent, r.Delivered, r.Dropped, r.EventsExecuted, r.Faults, r.ReconvergenceTime, r.Violated),
				JSON:   r,
				Failed: r.Violated,
			}
		},
	}
}
