package sim

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/transport"
)

// ParallelSim runs one scenario on the sharded conservative-parallel
// engine (des.ParallelEngine). It differs from Simulation in the delay
// law and the engine count. Nodes are block-partitioned into
// Config.Shards shards, each owning a serial DES engine (and a lane of
// Net) that carries the shard's clocks, drivers, beacon timers and
// message deliveries; skew sampling, gradient checking, and topology
// churn run on the coordinator's global engine, which observes every
// shard barriered at a single consistent instant. Delays lie in
// (MinDelay, MaxDelay] — the positive floor is the engine's lookahead,
// the amount of simulated time shard windows may run ahead of each other.
//
// Because every delay draw, event order, and cross-shard merge is a
// pure function of the Config (Shards included, Workers excluded), the
// report is bit-identical for every worker count; workers=1 is the
// serial reference the determinism suite compares against.
//
// A ParallelSim is reusable like Simulation: Reset rewires it in place,
// recycling engines, graph storage, flight arenas, and per-node objects
// when the (N, Shards, MinDelay) shape is unchanged.
type ParallelSim struct {
	core
	P *des.ParallelEngine

	// shardOf maps node -> shard (block partition).
	shardOf []int32

	// delayRands[i] is node i's private delay stream, forked per run from
	// the delay root; delayFn is the long-lived delay law over them.
	delayRoot  des.Rand
	delayRands []des.Rand
	delayFn    transport.DelayFn

	// shape keys the rebuild decision: engines and per-node objects are
	// reconstructed only when it changes.
	shape pshape

	// Shard-local sample reduction. shardStart[s]..shardStart[s+1] is
	// shard s's contiguous node block (the same block partition as
	// shardOf); sampleLo/sampleHi hold per-shard partial extrema, merged
	// in fixed shard order so the result is bit-identical to the serial
	// left-to-right scan. runWorkers is the worker count Run resolved;
	// like Workers itself it is execution, not physics.
	shardStart   []int32
	sampleLo     []float64
	sampleHi     []float64
	sampleNext   atomic.Int64
	sampleWG     sync.WaitGroup
	sampleWorker func()
	runWorkers   int
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
	ps.scan = ps.observeScan
	// The sharded delay law: each message draws from its sender's private
	// stream, in the sender's own send order — never in the order shard
	// windows interleave — uniformly in (MinDelay, MaxDelay].
	ps.delayFn = func(m *transport.Message) float64 {
		return ps.Cfg.MinDelay + (ps.Cfg.MaxDelay-ps.Cfg.MinDelay)*(1-ps.delayRands[m.From].Float64())
	}
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
	ps.root.ForkInto(0xde1a9, &ps.delayRoot)
	for i := 0; i < cfg.N; i++ {
		ps.delayRoot.ForkInto(uint64(i), &ps.delayRands[i])
	}
	ps.arm()
}

// build constructs the engine set, the node partition and the transport
// (one lane per shard) for a new shape.
func (ps *ParallelSim) build(cfg Config) {
	ps.P = des.NewParallelEngine(cfg.Shards, cfg.MinDelay)
	ps.delayRands = make([]des.Rand, cfg.N)
	ps.shardOf = make([]int32, cfg.N)
	for i := 0; i < cfg.N; i++ {
		// Block partition: contiguous node ranges, so ring/grid topologies
		// keep almost all edges shard-internal.
		ps.shardOf[i] = int32(i * cfg.Shards / cfg.N)
	}
	// Shard block boundaries for the sample scan: shard s's first node is
	// the least i with i*Shards/N >= s, i.e. ceil(s*N/Shards); an empty
	// shard (Shards > N) comes out as a zero-width range.
	ps.shardStart = make([]int32, cfg.Shards+1)
	for s := range ps.shardStart {
		ps.shardStart[s] = int32((s*cfg.N + cfg.Shards - 1) / cfg.Shards)
	}
	ps.sampleLo = make([]float64, cfg.Shards)
	ps.sampleHi = make([]float64, cfg.Shards)
	ps.sampleWorker = func() {
		defer ps.sampleWG.Done()
		for {
			s := int(ps.sampleNext.Add(1) - 1)
			if s >= ps.P.NumShards() {
				return
			}
			ps.observeShard(s)
		}
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

// parallelSampleMinNodes gates the concurrent sample scan: below this
// node count the serial scan wins (and the zero budget of the sharded
// row of TestArenaSecondRunZeroAlloc holds — spawning sample workers
// costs a few allocations per sample). Tests lower it to force the
// concurrent path.
var parallelSampleMinNodes = 4096

// observeShard scans shard s's node block, filling the shared value
// slice (disjoint index ranges per shard) and the shard's partial
// extrema. Safe to run concurrently across shards: at the sample
// instant every shard is barriered, so clock reads are consistent and
// nothing else touches vals.
func (ps *ParallelSim) observeShard(s int) {
	ps.sampleLo[s], ps.sampleHi[s] = ps.scanRange(int(ps.shardStart[s]), int(ps.shardStart[s+1]))
}

// observeScan computes the sample's global extrema and fills vals.
// Large runs with multiple workers scan shard blocks concurrently and
// merge the per-shard partials in fixed shard order — float min/max is
// exact and the blocks tile the index range, so the result is
// bit-identical to the serial left-to-right scan it replaces (which was
// the last O(n) serial stretch on the sampling path).
func (ps *ParallelSim) observeScan() (lo, hi float64) {
	shards := ps.P.NumShards()
	if w := min(ps.runWorkers, shards); w > 1 && len(ps.Nodes) >= parallelSampleMinNodes {
		ps.sampleNext.Store(0)
		ps.sampleWG.Add(w)
		for k := 0; k < w; k++ {
			go ps.sampleWorker()
		}
		ps.sampleWG.Wait()
	} else {
		for s := 0; s < shards; s++ {
			ps.observeShard(s)
		}
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for s := 0; s < shards; s++ {
		if ps.sampleLo[s] < lo {
			lo = ps.sampleLo[s]
		}
		if ps.sampleHi[s] > hi {
			hi = ps.sampleHi[s]
		}
	}
	return lo, hi
}

// Run executes the scenario to its horizon and returns the report. Like
// the serial Run it is idempotent; the report is a pure function of the
// Config — Workers only decides how many goroutines execute the shard
// windows.
func (ps *ParallelSim) Run() SkewReport {
	ps.startSampler()
	ps.runWorkers = ps.Cfg.Workers
	if ps.runWorkers <= 0 {
		ps.runWorkers = runtime.GOMAXPROCS(0)
	}
	ps.P.Run(ps.Cfg.Horizon, ps.runWorkers)
	return ps.finalise(ps.P.Executed())
}
