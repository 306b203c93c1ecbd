package sim

// Arena owns one reusable Simulation and re-runs configs through it.
// Each run of a config produces a report bit-identical to a freshly
// wired simulation's — the arena reseeds every PRNG stream and resets every
// component in place — but the O(n) per-run wiring (engine event pool,
// graph adjacency and history storage, transport flight arena, clocks,
// nodes, sample buffers and skew series, the analytic bound's topology BFS) is
// paid once per shape and then reused: re-running a same-shape config,
// churn included, allocates nothing, which TestArenaSecondRunZeroAlloc
// pins. Growing to a larger N reuses the smaller prefix and allocates
// only the delta, so ascending sweeps (the lower-bound n-sweep) stay
// cheap.
//
// An Arena is single-threaded, like the Simulation it owns; parallel
// sweeps give each worker its own Arena (see RunSweep).
type Arena struct {
	s  *Simulation
	ps *ParallelSim
}

// NewArena returns an empty arena; the first Sim or Run call wires it.
func NewArena() *Arena { return &Arena{} }

// Sim returns the arena's simulation wired for cfg, creating it on first
// use and resetting it in place afterwards.
func (a *Arena) Sim(cfg Config) *Simulation {
	if a.s == nil {
		a.s = New(cfg)
	} else {
		a.s.Reset(cfg)
	}
	return a.s
}

// Parallel returns the arena's sharded-parallel simulation wired for
// cfg (which must have Config.Parallel set), creating it on first use
// and resetting it in place afterwards. The serial and parallel
// simulations coexist in one arena; each is wired lazily.
func (a *Arena) Parallel(cfg Config) *ParallelSim {
	if a.ps == nil {
		a.ps = NewParallel(cfg)
	} else {
		a.ps.Reset(cfg)
	}
	return a.ps
}

// Run wires the arena for cfg and executes the scenario to its horizon,
// dispatching on Config.Parallel.
func (a *Arena) Run(cfg Config) SkewReport {
	if cfg.Parallel {
		return a.Parallel(cfg).Run()
	}
	return a.Sim(cfg).Run()
}

// RunSliced is Run with a cooperative-preemption seam for long cells:
// a long-running sweep service needs per-cell deadlines and graceful
// drain, but a simulation cannot be interrupted mid-event. Serial
// configs therefore advance in slices of slice simulated seconds,
// calling cont between slices; when cont returns false the run is
// abandoned — ok is false, the report is zero-valued, and the arena is
// left ready for the next cell (the next Run rewires it in place).
// A completed run's report is bit-identical to a.Run(cfg): slicing only
// changes where the engine pauses, never what it executes, which
// TestArenaRunSlicedBitIdentical pins.
//
// Parallel configs have no mid-run seam (the sharded engine owns its
// window loop), so they consult cont once up front and then execute in
// one piece; a nil cont or nonpositive slice degrades to Run.
func (a *Arena) RunSliced(cfg Config, slice float64, cont func() bool) (report SkewReport, ok bool) {
	if cont == nil {
		return a.Run(cfg), true
	}
	if !cont() {
		return SkewReport{}, false
	}
	if cfg.Parallel || slice <= 0 {
		return a.Run(cfg), true
	}
	s := a.Sim(cfg)
	for t := slice; t < s.Cfg.Horizon; t += slice {
		s.Advance(t)
		if !cont() {
			return SkewReport{}, false
		}
	}
	return s.Run(), true
}
