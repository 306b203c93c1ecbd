package sim

// Arena owns one reusable Simulation and re-runs configs through it.
// Each run of a config produces a report bit-identical to a freshly
// wired simulation's — the arena reseeds every PRNG stream and resets every
// component in place — but the O(n) per-run wiring (engine event pool,
// graph adjacency and presence log, transport flight arena, clocks,
// nodes, sample buffers and skew series) is paid once per shape and then
// reused: re-running a same-shape config, churn and the lower-bound
// adversary included, allocates nothing, which
// TestArenaSecondRunZeroAlloc pins. On the serial engine a change of N
// keeps the engine: a smaller N reuses the node records, and a larger
// one wires a new slab of N records.
//
// An Arena is single-threaded, like the Simulation it owns; parallel
// sweeps give each worker its own Arena (see RunSweep).
type Arena struct{ s *Simulation }

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

// Parallel is Sim under the name the benchmark harness still calls for
// sharded configs. ROADMAP item 1 (the benchmark's narrow waist) deletes
// it.
func (a *Arena) Parallel(cfg Config) *Simulation { return a.Sim(cfg) }

// Run wires the arena for cfg and executes the scenario to its horizon.
func (a *Arena) Run(cfg Config) SkewReport { return a.Sim(cfg).Run() }

// RunSliced is Run with a cooperative-preemption seam for long cells:
// a long-running sweep service needs per-cell deadlines and graceful
// drain, but a simulation cannot be interrupted mid-event. A cell
// therefore advances in slices of slice simulated seconds, calling cont
// before wiring and between slices; when cont returns false the run is
// abandoned — ok is false, the report is zero-valued, and the arena is
// left ready for the next cell (the next Run rewires it in place).
// Sharded cells slice like serial ones: each slice is one more
// ParallelEngine.Run up to the slice's end. A completed run's report is
// bit-identical to a.Run(cfg): slicing only changes where the engines
// pause, never what they execute, which TestArenaRunSlicedBitIdentical
// and TestArenaRunSlicedParallel pin. A nil cont or nonpositive slice
// degrades to Run.
func (a *Arena) RunSliced(cfg Config, slice float64, cont func() bool) (report SkewReport, ok bool) {
	if cont == nil {
		return a.Run(cfg), true
	}
	if !cont() {
		return SkewReport{}, false
	}
	s := a.Sim(cfg)
	for t := slice; slice > 0 && t < s.Cfg.Horizon; t += slice {
		s.Advance(t)
		if !cont() {
			return SkewReport{}, false
		}
	}
	return s.Run(), true
}
