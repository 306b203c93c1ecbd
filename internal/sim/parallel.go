package sim

import (
	"math"
	"runtime"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/transport"
)

// ParallelSim runs one scenario on the sharded conservative-parallel
// engine (des.ParallelEngine). It differs from Simulation only in its
// engine set. Nodes are block-partitioned into
// Config.Shards shards, each owning a serial DES engine (and a lane of
// Net) that carries the shard's clocks, drivers, beacon timers and
// message deliveries; skew sampling, gradient checking, and topology
// churn run on the coordinator's global engine, which observes every
// shard barriered at a single consistent instant — through the core's
// one serial sample path, the same as Simulation's. MinDelay, the delay
// floor, is the engine's lookahead: the amount of simulated time shard
// windows may run ahead of each other.
//
// A delay is drawn from its sender's stream in the sender's own send
// order, never in the order shard windows interleave, and every event
// order and cross-shard merge is a pure function of the Config (Shards
// included, Workers excluded), so the report is bit-identical for every
// worker count; workers=1 is the serial reference the determinism suite
// compares against.
//
// A ParallelSim is reusable like Simulation: Reset rewires it in place,
// recycling engines, graph storage, flight arenas, and per-node objects
// when the (N, Shards, MinDelay) shape is unchanged.
type ParallelSim struct {
	core
	P *des.ParallelEngine

	// shardOf maps node -> shard (block partition).
	shardOf []int32

	// shape keys the rebuild decision: engines and per-node objects are
	// reconstructed only when it changes.
	shape pshape
}

// pshape is the allocation shape of a wired ParallelSim: changing any
// field forces a rebuild (clocks bind to their shard's engine at
// construction, and the engine set is fixed by shards and lookahead).
type pshape struct {
	n        int
	shards   int
	minDelay float64
}

// NewParallel wires a parallel simulation from the config without
// running it. The config must have Parallel set.
func NewParallel(cfg Config) *ParallelSim {
	ps := &ParallelSim{}
	ps.init()
	ps.engineOf = func(i int) *des.Engine { return ps.P.Shard(int(ps.shardOf[i])) }
	ps.Reset(cfg)
	return ps
}

// Reset rewires the simulation in place for cfg, reusing engines, graph
// storage, flight arenas, and per-node objects when the (N, Shards,
// MinDelay) shape is unchanged. After Reset the simulation behaves
// exactly like NewParallel(cfg): executions are bit-identical.
func (ps *ParallelSim) Reset(cfg Config) {
	cfg = ps.begin(cfg)
	if !cfg.Parallel {
		panic("sim: NewParallel requires Config.Parallel")
	}
	if shape := (pshape{n: cfg.N, shards: cfg.Shards, minDelay: cfg.MinDelay}); ps.P == nil || shape != ps.shape {
		ps.build(cfg)
		ps.shape = shape
	} else {
		ps.P.Reset()
		ps.Net.Reset(ps.delayFn, cfg.MaxDelay)
	}
	ps.arm()
}

// build constructs the engine set, the node partition and the transport
// (one lane per shard) for a new shape.
func (ps *ParallelSim) build(cfg Config) {
	ps.P = des.NewParallelEngine(cfg.Shards, cfg.MinDelay)
	ps.shardOf = make([]int32, cfg.N)
	for i := 0; i < cfg.N; i++ {
		// Block partition: contiguous node ranges, so ring/grid topologies
		// keep almost all edges shard-internal.
		ps.shardOf[i] = int32(i * cfg.Shards / cfg.N)
	}

	// A flight whose destination is on another shard crosses as a packed
	// des.CrossMsg and is put in flight on the owning lane at the merge.
	// The delay floor is the lookahead, so it always lands beyond the
	// current safe window (ParallelEngine.merge checks).
	engines := make([]*des.Engine, cfg.Shards)
	for s := range engines {
		engines[s] = ps.P.Shard(s)
	}
	ps.Net = transport.NewSharded(engines, ps.Graph, ps.delayFn, cfg.MaxDelay, ps.shardOf, "psim.deliver",
		func(src, dst int, m *transport.Message) {
			ps.P.SendCross(src, dst, des.CrossMsg{
				DeliverAt: m.DeliverAt,
				W0:        uint64(uint32(m.From))<<32 | uint64(uint32(m.To)),
				W1:        math.Float64bits(m.SentAt),
				W2:        math.Float64bits(m.Value),
			})
		})
	ps.P.SetCrossHandler(func(_ int, m des.CrossMsg) {
		from, to := int(m.W0>>32), int(uint32(m.W0))
		ps.Net.Accept(transport.Message{
			From:      from,
			To:        to,
			Edge:      dyngraph.E(from, to),
			Value:     math.Float64frombits(m.W2),
			SentAt:    math.Float64frombits(m.W1),
			DeliverAt: m.DeliverAt,
		})
	})

	// Clocks bind to their shard's engine at construction, so a shape
	// change cannot reuse the pooled nodes: arm rebuilds them.
	ps.global = ps.P.Global()
	ps.allClocks, ps.allNodes = nil, nil
}

// Run executes the scenario to its horizon and returns the report. Like
// the serial Run it is idempotent; the report is a pure function of the
// Config — Workers only decides how many goroutines execute the shard
// windows.
func (ps *ParallelSim) Run() SkewReport {
	ps.startSampler()
	workers := ps.Cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ps.P.Run(ps.Cfg.Horizon, workers)
	return ps.finalise(ps.P.Executed())
}
