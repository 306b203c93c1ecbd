package sim

import (
	"errors"
	"fmt"
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
// defaults. Err, when non-nil, is the cell's validation error: the cell
// did not run (Cfg and Report are zero-valued) but its siblings did —
// one malformed cell never discards the rest of the sweep.
type SweepResult struct {
	Name   string
	Cfg    Config
	Report SkewReport
	Err    error
}

// CellSeed derives a per-cell seed from a base seed and the cell's grid
// index, so sweep grids get decorrelated streams without the caller
// hand-picking seeds. The mix is SplitMix64's increment, the same
// constant des.Rand forks with.
func CellSeed(base uint64, index int) uint64 {
	return base + 0x9e3779b97f4a7c15*uint64(index+1)
}

// forEachCell fans indices 0..n-1 across workers goroutines (<= 0
// means GOMAXPROCS), each owning a private Arena reused from cell to
// cell, and blocks until all cells ran. run must write only
// index-disjoint state. This is the one worker-pool implementation
// behind RunSweep and LowerBoundSweep.
func forEachCell(n, workers int, run func(i int, a *Arena)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := NewArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i, a)
			}
		}()
	}
	wg.Wait()
}

// RunSweep executes every cell and returns one result per cell, in cell
// order. Cells are fanned across workers goroutines (<= 0 means
// GOMAXPROCS), each owning a private Arena, so per-run wiring is reused
// within a worker and nothing is shared between workers. Because each
// cell's execution depends only on its config, the output is
// bit-identical for every worker count — including workers == 1, the
// serial order — which TestSweepParallelBitIdentical pins.
//
// Every cell is validated up front, but a malformed config fails only
// its own cell: the result carries the cell's error while every valid
// sibling still runs and reports. The returned error joins the per-cell
// errors (nil when every cell ran), so callers that treat any failure
// as fatal keep a single check while sweep services read the per-cell
// slice.
func RunSweep(cells []SweepCell, workers int) ([]SweepResult, error) {
	out := make([]SweepResult, len(cells))
	valid := make([]int, 0, len(cells))
	var errs []error
	for i := range cells {
		out[i].Name = cells[i].Name
		if err := cells[i].Cfg.Validate(); err != nil {
			out[i].Err = fmt.Errorf("sweep cell %d (%s): %w", i, cells[i].Name, err)
			errs = append(errs, out[i].Err)
			continue
		}
		valid = append(valid, i)
	}
	forEachCell(len(valid), workers, func(j int, a *Arena) {
		i := valid[j]
		out[i] = SweepResult{
			Name:   cells[i].Name,
			Cfg:    cells[i].Cfg.WithDefaults(),
			Report: a.Run(cells[i].Cfg),
		}
	})
	return out, errors.Join(errs...)
}
