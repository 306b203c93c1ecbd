package sim

import (
	"gcs/internal/des"
	"gcs/internal/fault"
	"gcs/internal/transport"
)

// SkewReport summarizes one execution. All fields are deterministic
// functions of the Config (including Seed), which the determinism
// regression test relies on.
type SkewReport struct {
	// MaxGlobalSkew is the largest max-minus-min logical clock spread
	// observed at any sample point.
	MaxGlobalSkew float64
	// MaxAdjacentSkew is the largest |L_u - L_v| observed over any edge
	// present at a sample point (the gradient/local skew).
	MaxAdjacentSkew float64
	// FinalGlobalSkew is the spread at the horizon.
	FinalGlobalSkew float64
	// Bound is the scenario's analytic global skew bound.
	Bound float64
	// Samples counts skew observations (including t=0 and the horizon).
	Samples int

	Transport transport.Stats
	// EventsExecuted is the DES kernel's fired-event count.
	EventsExecuted uint64
	EdgeAdds       int
	EdgeRemoves    int

	// MinRateSeen/MaxRateSeen aggregate hardware rates across all nodes,
	// for validating the [1-rho, 1+rho] drift bound.
	MinRateSeen float64
	MaxRateSeen float64

	TotalJumps    int
	TotalMessages int
	TotalBeacons  int
	// TotalDiscoveries counts immediate beacons sent over fresh edges
	// (gcs neighbor discovery on EdgeAdded).
	TotalDiscoveries int

	// PerDistanceSkew, when Config.CheckGradient is set, holds the
	// largest |L_u - L_v| observed over any pair at current hop distance
	// d, indexed by d (index 0 unused). Nil when the check is off.
	PerDistanceSkew []float64
	// DistanceRecomputes counts the gradient checker's distance-matrix
	// BFS sweeps (one per topology-change epoch observed); 0 when the
	// check is off.
	DistanceRecomputes int

	// Faults counts the injected disturbances (Config.Faults); zero when
	// injection is off.
	Faults fault.Stats
	// ReconvergenceTime measures graceful degradation under injection:
	// the time from the last injected disturbance until the global skew
	// (over live nodes) re-entered the analytic bound. 0 when the skew
	// never left the bound after the last fault (or no fault fired);
	// +Inf when it was still outside at the horizon — the chaos CI gate
	// fails on that.
	ReconvergenceTime float64
}

// Simulation is one fully wired scenario on the serial engine: the
// harness core with every node on one des.Engine. It is exposed so tests
// can inspect mid-run state; most callers use an Arena. A Simulation is
// reusable: Reset rewires it in place for another config, recycling the
// engine's event pool, the graph's adjacency and history storage, the
// transport's flight arena, and every per-node object, so repeated runs
// of same-shape configs allocate nothing (see Arena).
type Simulation struct {
	core
	Engine *des.Engine
}

// New wires a simulation from the config without running it.
func New(cfg Config) *Simulation {
	s := &Simulation{Engine: des.NewEngine()}
	s.init()
	s.global = s.Engine
	s.engineOf = func(int) *des.Engine { return s.Engine }
	s.Reset(cfg)
	return s
}

// Reset rewires the simulation in place for cfg, reusing every warm
// buffer and pooled object of the previous run. After Reset the
// simulation behaves exactly like New(cfg) — executions are
// bit-identical — but a same-shape rewire performs zero allocations.
func (s *Simulation) Reset(cfg Config) {
	s.Engine.Reset()
	cfg = s.begin(cfg)
	if s.Net == nil {
		s.Net = transport.New(s.Engine, s.Graph, s.delayFn, cfg.MaxDelay)
	} else {
		s.Net.Reset(s.delayFn, cfg.MaxDelay)
	}
	s.arm()
}

// Advance runs the execution up to real time t, installing the periodic
// skew sampler on first call. Tests step a live scenario through it; Run
// drives it to the horizon and finalizes the report.
func (s *Simulation) Advance(t float64) {
	s.startSampler()
	s.Engine.Run(t)
}

// Run executes the scenario to its horizon and returns the report. It is
// idempotent: calling it after Advance-stepping, or twice, reports each
// jump, message and beacon exactly once.
func (s *Simulation) Run() SkewReport {
	s.Advance(s.Cfg.Horizon)
	return s.finalise(s.Engine.Executed())
}
