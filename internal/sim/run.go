package sim

import (
	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
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
	// DistanceRecomputes counts the topology-change epochs the gradient
	// checker met, each by a fold or an all-pairs recompute (see
	// GradientChecker); 0 when the check is off.
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

// Simulation is one fully wired scenario: the one DES harness. Its
// engine set P is the serial engine (one queue, (t, seq) order) at
// MinDelay 0, else the windowed engine with lookahead MinDelay over
// max(Shards, 1) block-partitioned shards. A shard's engine and lane of
// Net carry its nodes' clocks, drivers, beacon timers and deliveries;
// churn, fault chains and sampling run on the global engine, which sees
// every shard at one consistent instant. No event order depends on the
// partition, so the report is the same for every shard and worker count.
//
// Tests inspect mid-run state through it; most callers use an Arena.
// Reset rewires it in place, recycling event pools, graph storage,
// flight arenas and per-node objects, so a same-shape re-run allocates
// nothing.
type Simulation struct {
	Cfg   Config
	Graph *dyngraph.Dynamic
	// Clocks and Nodes are pointer views into the records, node i's
	// clock and algorithm state, for the report and for tests; the
	// event handlers index the records themselves.
	Clocks []*clock.HardwareClock
	Nodes  []*gcs.Node
	// Net is the transport every node transmits through, one lane per
	// shard.
	Net *transport.Network

	// P is the engine set. Engine is P.Global(): it carries the events
	// that see every node at one consistent instant (churn, fault chains,
	// sampling), and on the serial engine it is the only engine.
	P      *des.ParallelEngine
	Engine *des.Engine

	// shardOf maps node -> shard (block partition); nil on the serial
	// engine.
	shardOf []int32
	// shape keys the rebuild decision: the engine set, the transport and
	// the per-node objects are rebuilt only when it changes.
	shape shape

	// recs holds one record per node, indexed by node id. Its first
	// Cfg.N entries are live; arm replaces it when N outgrows it.
	recs []nodeRecord
	// shared is what every node shares: the run's parameters and the
	// nodes' wiring to Net and Graph.
	shared  gcs.Shared
	drivers []DriverState
	churn   ChurnState

	// root is reseeded per run and streams re-forked from it, so reuse
	// stays bit-identical to a fresh wiring.
	root    des.Rand
	streams Streams

	// delays is the run's delay law, rewired by Reset.
	delays transport.Delays

	// lbDelayFn is the lower bound's delay law, bound on first use
	// (Config.LowerBoundEps).
	lbDelayFn transport.DelayFn

	// Long-lived callbacks, bound once so rewiring and sampling allocate
	// nothing. delayFn draws from delays and is Net's delay law.
	delayFn                  transport.DelayFn
	driveFn, crashFn, rateFn des.ArgHandler
	churnFn                  des.ArgHandler
	// fireFn is every clock's engine firing: fireFn(i) fires clock i.
	fireFn des.ArgHandler
	// sampleFn is the skew sampler's chain, armed last by arm.
	sampleFn des.ArgHandler
	// onMessage is the single delivery handler shared by every node.
	onMessage transport.Handler

	// wired records that a first wiring has filled the graph and made the
	// one-time discovery subscription; edgeCfg keys the cached initial
	// edge set.
	wired   bool
	edgeCfg edgeKey
	// initialEdges is the backbone edge set materialized once per
	// topology shape and reused by the churn setup (Topology.Edges is
	// O(n) or worse, so it must not be recomputed per run).
	initialEdges []dyngraph.Edge

	// vals is the reused logical-clock sample buffer.
	vals []float64
	fold Fold
	// series holds one point per sample of the current run, in time
	// order; arm sizes it once and reuses it.
	series []SkewPoint
	// gradient, when non-nil (Config.CheckGradient), folds every sample
	// into per-distance skew buckets.
	gradient *GradientChecker

	// Fault-injection state (Config.Faults). msgPlan is the message-fault
	// plan (it keeps the grown stream table across rewires); Net draws
	// verdicts from it per send while the active plan has message faults.
	// injector holds the crash/recover and rate-excursion chains, stepped
	// by events on the global engine.
	msgPlan    fault.Messages
	injector   fault.Injector
	faultStats fault.Stats
}

// nodeRecord is one DES node: its algorithm state and its hardware clock,
// side by side in one slab entry, so an event at the node reaches both
// from one index. The node reads its clock through a pointer into the
// same record, and both hold pointers into themselves, so a record never
// moves once wired.
type nodeRecord struct {
	node  gcs.Node
	clock clock.HardwareClock
}

// shape is the allocation shape of a wired Simulation: a change forces
// a rebuild, because clocks bind to their shard's engine at construction.
// N is part of it on the windowed engine, where the partition depends
// on it; the serial engine keeps its engine as N changes.
type shape struct {
	shards    int
	lookahead float64
	n         int
}

// New wires a simulation from the config without running it.
func New(cfg Config) *Simulation {
	s := &Simulation{}
	s.init()
	s.Reset(cfg)
	return s
}

// Reset rewires the simulation in place for cfg: it validates and
// defaults cfg, reseeds the root stream and the delay law (or picks the
// lower-bound adversary's), resets the graph to the (cached) initial
// edge set, resets or rebuilds the engine set and Net, and arms the
// run. After Reset the simulation behaves exactly like New(cfg), bit for
// bit, and a same-shape rewire performs zero allocations.
func (s *Simulation) Reset(cfg Config) {
	// New/Reset keep the panic contract for programmer errors; the
	// error-returning boundary is RunSweep, which validates every cell.
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.WithDefaults()
	s.Cfg = cfg
	s.root.Reseed(cfg.Seed)
	s.delays.Wire(cfg.MinDelay, cfg.MaxDelay, cfg.N, &s.root)
	delay := s.delayFn
	if cfg.LowerBoundEps != 0 {
		delay = s.adversary()
	}

	star := cfg.Churn.Kind == ChurnRotatingStar
	if key := (edgeKey{topo: cfg.Topology, n: cfg.N, star: star}); key != s.edgeCfg {
		if star {
			s.initialEdges = nil
		} else {
			s.initialEdges = cfg.Topology.Edges(cfg.N)
		}
		s.edgeCfg = key
	}
	if s.Graph == nil {
		// A first wiring binds the transport and nodes to an empty graph and
		// lets arm fill it once the node records exist: the adjacency slices
		// are the most pointer-dense part of the heap, and every collection
		// the record slab triggers would otherwise mark them again.
		s.Graph = dyngraph.NewDynamic(cfg.N, nil)
	} else {
		s.Graph.Reset(cfg.N, s.initialEdges)
	}

	sh := shape{shards: 1}
	if cfg.MinDelay > 0 {
		sh = shape{shards: max(cfg.Shards, 1), lookahead: cfg.MinDelay, n: cfg.N}
	}
	if s.P == nil || sh != s.shape {
		s.build(cfg, sh, delay)
	} else {
		s.P.Reset()
		s.Net.Reset(delay, cfg.MaxDelay)
	}
	s.arm()
}

// adversary returns the Theorem 4.1 delay law: MaxDelay on every
// flexible hop (chain A), LowerBoundEps on every constrained one (chain
// B). The closure is bound on first use, so runs that never ask for it
// do not pay for it.
func (s *Simulation) adversary() transport.DelayFn {
	if s.lbDelayFn == nil {
		s.lbDelayFn = func(m *transport.Message) float64 {
			if n := s.Cfg.N; flexibleDist(n, m.From) > 0 || flexibleDist(n, m.To) > 0 {
				return s.Cfg.MaxDelay
			}
			return s.Cfg.LowerBoundEps
		}
	}
	return s.lbDelayFn
}

// build constructs the engine set, the node partition and the transport
// (one lane per shard, drawing from delay) for a new shape. Clocks bind
// to their shard's engine at construction, so arm rebuilds the records.
func (s *Simulation) build(cfg Config, sh shape, delay transport.DelayFn) {
	s.shape = sh
	s.P = des.NewParallelEngine(sh.shards, sh.lookahead)
	s.Engine = s.P.Global()
	s.recs, s.shardOf = nil, nil
	if sh.lookahead == 0 {
		s.Net = transport.New(s.Engine, s.Graph, delay, cfg.MaxDelay)
		return
	}

	// Block partition: contiguous node ranges, so ring/grid topologies
	// keep almost all edges shard-internal.
	s.shardOf = make([]int32, cfg.N)
	for i := range s.shardOf {
		s.shardOf[i] = int32(i * sh.shards / cfg.N)
	}
	engines := make([]*des.Engine, sh.shards)
	for i := range engines {
		engines[i] = s.P.Shard(i)
	}
	// Every flight waits in its sender lane's outbox for the next window,
	// whose merge puts it in flight on the destination's lane.
	s.Net = transport.NewSharded(engines, s.Graph, delay, cfg.MaxDelay, s.shardOf, "psim.deliver")
	s.P.SetMail(s.Net)
}

// engineOf returns the engine that carries node i.
func (s *Simulation) engineOf(i int) *des.Engine {
	if s.shardOf == nil {
		return s.Engine
	}
	return s.P.Shard(int(s.shardOf[i]))
}

// Advance runs the execution up to real time t. Tests and
// Arena.RunSliced step a live scenario through it; Run drives it to the
// horizon and finalizes the report.
func (s *Simulation) Advance(t float64) {
	s.P.Run(t, WorkerCount(s.Cfg.Workers))
}

// Run executes the scenario to its horizon and returns the report. It is
// idempotent: calling it after Advance-stepping, or twice, reports each
// jump, message and beacon exactly once. The report is a pure function
// of the Config's physics; Shards and Workers only decide how the
// windows are executed.
func (s *Simulation) Run() SkewReport {
	s.Advance(s.Cfg.Horizon)
	return s.finalise(s.P.Executed())
}
