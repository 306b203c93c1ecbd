package des

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ParallelEngine is a conservative (safe-window) parallel coordinator
// over node-sharded Engines. Each shard owns a serial Engine holding the
// events of its node subset; a separate global Engine holds the
// cross-cutting events (skew sampling, topology churn) that must observe
// every shard at a single consistent instant.
//
// Execution alternates two phases:
//
//   - Window phase: with tmin the earliest pending shard event and gt
//     the earliest pending global event, all shards concurrently fire
//     their events in [tmin, W) where W = min(tmin+lookahead, gt,
//     horizon). The lookahead is the minimum cross-shard message delay,
//     so nothing fired inside the window can schedule into another
//     shard before W — the classical conservative-PDES safety argument.
//   - Global phase: when gt <= tmin, every shard is advanced to exactly
//     gt (a barrier; AdvanceTo panics if a shard still has an earlier
//     event, so the invariant is machine-checked) and the global events
//     at gt run serially, free to read and mutate any shard's state.
//
// Cross-shard communication goes through per-(src, dst) outboxes:
// during a phase each shard appends its outgoing messages to its own
// outboxes (no synchronization — a shard writes only its own), and
// after the phase barrier the coordinator hands them to the cross
// handler in a fixed merge order (destination-major, then source shard,
// then FIFO). Every shard therefore observes cross messages in an
// order that is a pure function of the event structure, never of the
// worker interleaving: a run with workers=W is bit-identical to the
// workers=1 serial reference, which is what the determinism suite pins.
//
// The worker count is an execution detail, not part of the simulated
// physics; the shard count IS part of the physics (it decides which
// messages take the cross path), so it belongs to the scenario Config.
//
// One shard is the serial engine: the shard is the global engine, so
// Run is that engine's own Run, in (t, seq) order with no windows.
type ParallelEngine struct {
	shards    []*Engine
	global    *Engine
	lookahead Time
	// out[src][dst] is src's outbox toward dst, drained in merge order
	// after every phase.
	out     [][][]CrossMsg
	onCross CrossHandler
	windows uint64
	one     [1]*Engine // backs shards on one shard, saving an allocation
}

// CrossMsg is one cross-shard payload: an opaque 3-word value plus its
// delivery time. The coordinator never interprets the words — the
// layer above packs whatever it needs (sender, receiver, value bits).
type CrossMsg struct {
	DeliverAt  Time
	W0, W1, W2 uint64
}

// CrossHandler receives merged cross messages destined for shard dst,
// in deterministic merge order, with every engine barriered at or
// before the messages' delivery times. Implementations schedule the
// delivery on the dst shard's Engine.
type CrossHandler func(dst int, m CrossMsg)

// NewParallelEngine returns a coordinator over the given number of
// shards. lookahead must be positive (one shard, which has no windows,
// also takes 0): it is the amount of simulated time a window may run
// past the earliest pending event, and the layer above must guarantee
// no cross-shard message is delivered sooner than lookahead after it is
// sent.
func NewParallelEngine(shards int, lookahead Time) *ParallelEngine {
	if shards < 1 {
		panic("des: ParallelEngine needs at least one shard")
	}
	if !(lookahead > 0) && !(shards == 1 && lookahead == 0) {
		panic("des: ParallelEngine needs positive lookahead")
	}
	p := &ParallelEngine{global: NewEngine(), lookahead: lookahead}
	if shards == 1 {
		p.one[0] = p.global
		p.shards = p.one[:]
		return p
	}
	p.shards = make([]*Engine, shards)
	p.out = make([][][]CrossMsg, shards)
	for i := range p.shards {
		p.shards[i] = NewEngine()
		p.out[i] = make([][]CrossMsg, shards)
	}
	return p
}

// serial reports whether the engine set is one shard, the global engine.
func (p *ParallelEngine) serial() bool { return len(p.out) == 0 }

// NumShards returns the shard count.
func (p *ParallelEngine) NumShards() int { return len(p.shards) }

// Shard returns shard i's serial engine (with one shard, the global
// engine). Scheduling onto it is only safe from that shard's own events,
// from the global phase, or while the coordinator is idle.
func (p *ParallelEngine) Shard(i int) *Engine { return p.shards[i] }

// Global returns the engine for cross-cutting events. Its handlers run
// with every shard barriered at the event's exact time.
func (p *ParallelEngine) Global() *Engine { return p.global }

// SetCrossHandler installs the cross-shard delivery callback.
func (p *ParallelEngine) SetCrossHandler(fn CrossHandler) { p.onCross = fn }

// SendCross enqueues m from shard src toward shard dst. It must be
// called from src's own execution (one of its events, or the global
// phase attributing the send to src); the message reaches the cross
// handler after the current phase's barrier. DeliverAt must be more
// than the lookahead after the sending event's time — the merge
// validates it against the destination clock and panics on violation.
func (p *ParallelEngine) SendCross(src, dst int, m CrossMsg) {
	p.out[src][dst] = append(p.out[src][dst], m)
}

// merge drains every outbox in deterministic order: destination-major,
// then source shard, then FIFO within one outbox.
func (p *ParallelEngine) merge() {
	for dst := range p.shards {
		en := p.shards[dst]
		for src := range p.shards {
			box := p.out[src][dst]
			for i := range box {
				if box[i].DeliverAt < en.Now() {
					panic(fmt.Sprintf("des: cross message into shard %d at %v behind its clock %v (lookahead violated)",
						dst, box[i].DeliverAt, en.Now()))
				}
				p.onCross(dst, box[i])
			}
			p.out[src][dst] = box[:0]
		}
	}
}

// runWindow fires every shard's events strictly before limit, using up
// to workers goroutines. Shards only touch their own state and their
// own outboxes, so any assignment of shards to workers produces the
// same result; the worker count is invisible to the simulation.
func (p *ParallelEngine) runWindow(limit Time, workers int) {
	if workers > len(p.shards) {
		workers = len(p.shards)
	}
	if workers <= 1 {
		for _, sh := range p.shards {
			sh.RunBefore(limit)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(p.shards) {
					return
				}
				p.shards[i].RunBefore(limit)
			}
		}()
	}
	wg.Wait()
}

// Windows returns the number of parallel window phases executed, for
// observability in tests and benchmarks.
func (p *ParallelEngine) Windows() uint64 { return p.windows }

// Executed returns the total number of events fired across every shard
// and the global engine, counting each engine once.
func (p *ParallelEngine) Executed() uint64 {
	total := p.global.Executed()
	if p.serial() {
		return total
	}
	for _, sh := range p.shards {
		total += sh.Executed()
	}
	return total
}

// Reset returns the coordinator and every engine to time 0 with empty
// queues, recycling pooled events and keeping outbox capacity.
func (p *ParallelEngine) Reset() {
	p.global.Reset()
	if p.serial() {
		return
	}
	for i, sh := range p.shards {
		sh.Reset()
		for j := range p.out[i] {
			p.out[i][j] = p.out[i][j][:0]
		}
	}
	p.windows = 0
}

// Run executes the simulation to horizon: events at or before the
// horizon fire (shard events concurrently inside safe windows, global
// events serially at barriers), and every engine finishes with Now() at
// the horizon. On one shard it is the global engine's own Run. Run may
// be called again with a later horizon to continue the execution.
func (p *ParallelEngine) Run(horizon Time, workers int) {
	if p.serial() {
		p.global.Run(horizon)
		return
	}
	// Events at exactly the horizon are in scope, so windows are capped
	// at the first representable time past it.
	limitH := math.Nextafter(horizon, math.Inf(1))
	for {
		gt, gok := p.global.NextEventTime()
		if !gok {
			gt = math.Inf(1)
		}
		tmin := math.Inf(1)
		for _, sh := range p.shards {
			if t, ok := sh.NextEventTime(); ok && t < tmin {
				tmin = t
			}
		}
		if gt > horizon && tmin > horizon {
			break
		}
		if gt <= tmin {
			// Global phase: barrier every shard at exactly gt, then run
			// the global events at gt.
			for _, sh := range p.shards {
				sh.AdvanceTo(gt)
			}
			p.global.RunBefore(math.Nextafter(gt, math.Inf(1)))
			p.merge()
			continue
		}
		w := tmin + p.lookahead
		if gt < w {
			w = gt
		}
		if limitH < w {
			w = limitH
		}
		p.runWindow(w, workers)
		p.merge()
		p.windows++
	}
	for _, sh := range p.shards {
		sh.AdvanceTo(horizon)
	}
	p.global.AdvanceTo(horizon)
}
