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
// harness core with every node on one des.Engine and every delay drawn
// from one shared stream. It is exposed so tests can inspect mid-run
// state; most callers use Run. A Simulation is reusable: Reset rewires
// it in place for another config, recycling the engine's event pool, the
// graph's adjacency and history storage, the transport's flight arena,
// and every per-node object, so repeated runs of same-shape configs
// allocate nothing (see Arena).
type Simulation struct {
	core
	Engine *des.Engine

	delayRand *des.Rand
	// delayFn is the long-lived base delay law over delayRand; it is
	// rebuilt only when the delay bounds change.
	delayFn  transport.DelayFn
	delayMax float64
	delayMin float64
}

// New wires a simulation from the config without running it.
func New(cfg Config) *Simulation {
	s := &Simulation{Engine: des.NewEngine(), delayRand: des.NewRand(0)}
	s.init()
	s.global = s.Engine
	s.engineOf = func(int) *des.Engine { return s.Engine }
	s.scan = func() (lo, hi float64) { return s.scanRange(0, len(s.Nodes)) }
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

	// The serial delay law: every message draws from one shared stream,
	// in global send order, uniformly in (MinDelay, MaxDelay].
	if s.delayFn == nil || s.delayMax != cfg.MaxDelay || s.delayMin != cfg.MinDelay {
		s.delayMax = cfg.MaxDelay
		s.delayMin = cfg.MinDelay
		s.delayFn = transport.UniformDelayIn(cfg.MinDelay, cfg.MaxDelay, s.delayRand)
	}
	s.root.ForkInto(0xde1a9, s.delayRand)
	if s.Net == nil {
		s.Net = transport.New(s.Engine, s.Graph, s.delayFn, cfg.MaxDelay)
	} else {
		s.Net.Reset(s.delayFn, cfg.MaxDelay)
	}
	s.arm()
}

// AttachTrace registers tr to receive one (time, per-node logical
// values) row per skew sample. tr is reset to the scenario's node count;
// call after wiring (New or Reset), before the simulation runs.
func (s *Simulation) AttachTrace(tr *TraceRecorder) {
	tr.Reset(s.Cfg.N)
	s.trace = tr
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

// Run wires and executes cfg in one call, dispatching to the sharded
// parallel harness when Config.Parallel is set. A malformed config is
// rejected with Validate's error before anything is wired — the
// harness-boundary contract a long-running sweep service relies on.
//
//gcslint:allow testonly — the validating one-call entry point for library callers
func Run(cfg Config) (SkewReport, error) {
	if err := cfg.Validate(); err != nil {
		return SkewReport{}, err
	}
	return NewArena().Run(cfg), nil
}
