package des

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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
//     horizon). The lookahead is the minimum message delay, so no
//     message sent inside the window is due before W — the classical
//     conservative-PDES safety argument.
//   - Global phase: when gt <= tmin, every shard is advanced to exactly
//     gt (a barrier; AdvanceTo panics if a shard still has an earlier
//     event, so the invariant is machine-checked) and the global events
//     at gt run serially, free to read and mutate any shard's state.
//
// Every message goes through per-(src, dst) outboxes, a shard's own
// included: a shard appends only to its own. Each window first hands
// every shard what was sent to it since the last window began, one
// node's same-instant messages in stable W0 order, then runs it. Neither
// the batch a message joins nor that order depends on the partition, so
// one node's same-instant deliveries meet alike on every shard and
// worker count (Rönngren and Liljenstam, "On event ordering in parallel
// discrete event simulation", PADS 1999): both counts are execution.
//
// With lookahead 0 the one shard is the global engine, and Run is its
// own Run in (t, seq) order. One shard with lookahead is windowed.
type ParallelEngine struct {
	shards    []*Engine
	global    *Engine
	lookahead Time
	// out[g][src][dst] is src's outbox toward dst in generation g; sends
	// go to generation cur, and a window drains the other.
	out [2][][][]CrossMsg
	cur int
	// due[src] is the earliest DeliverAt in src's generation-cur outboxes.
	due []Time
	// seen[dst] is dst's scratch set of hashed delivery times.
	seen    [][1 << tieLog / 64]uint64
	onCross CrossHandler
	windows uint64
	// next is the next shard a window's workers take; wg waits for them.
	next atomic.Int64
	wg   sync.WaitGroup
	one  [1]*Engine // backs shards on one shard, saving an allocation
}

// CrossMsg is one message through the outboxes: an opaque 3-word value
// plus its delivery time. The coordinator never interprets the words —
// the layer above packs whatever it needs (sender, receiver, value bits).
type CrossMsg struct {
	DeliverAt  Time
	W0, W1, W2 uint64
}

// CrossHandler receives the messages for shard dst, those with one
// DeliverAt in W0 order, and schedules them on dst's Engine. Calls for
// distinct dst may run concurrently.
type CrossHandler func(dst int, m CrossMsg)

// NewParallelEngine returns a coordinator over the given number of
// shards. lookahead is the amount of simulated time a window may run
// past the earliest pending event, and the layer above must guarantee no
// message is delivered sooner than lookahead after it is sent. It must
// be positive, or 0 for the one-shard serial engine.
func NewParallelEngine(shards int, lookahead Time) *ParallelEngine {
	if shards < 1 {
		panic("des: ParallelEngine needs at least one shard")
	}
	if !(lookahead > 0) && !(shards == 1 && lookahead == 0) {
		panic("des: ParallelEngine needs positive lookahead")
	}
	p := &ParallelEngine{global: NewEngine(), lookahead: lookahead}
	if lookahead == 0 {
		p.one[0] = p.global
		p.shards = p.one[:]
		return p
	}
	p.shards = make([]*Engine, shards)
	p.seen = make([][1 << tieLog / 64]uint64, shards)
	p.due = make([]Time, shards)
	p.flip()
	p.out = [2][][][]CrossMsg{make([][][]CrossMsg, shards), make([][][]CrossMsg, shards)}
	for i := range p.shards {
		p.shards[i] = NewEngine()
		p.out[0][i], p.out[1][i] = make([][]CrossMsg, shards), make([][]CrossMsg, shards)
	}
	return p
}

// serial reports whether the engine set is the one-shard serial engine.
func (p *ParallelEngine) serial() bool { return p.out[0] == nil }

// NumShards returns the shard count.
func (p *ParallelEngine) NumShards() int { return len(p.shards) }

// Shard returns shard i's engine (on the serial engine, the global
// engine). Scheduling onto it is only safe from that shard's own events,
// from the global phase, or while the coordinator is idle.
func (p *ParallelEngine) Shard(i int) *Engine { return p.shards[i] }

// Global returns the engine for cross-cutting events. Its handlers run
// with every shard barriered at the event's exact time.
func (p *ParallelEngine) Global() *Engine { return p.global }

// SetCrossHandler installs the cross-shard delivery callback.
func (p *ParallelEngine) SetCrossHandler(fn CrossHandler) { p.onCross = fn }

// SendCross enqueues m from shard src toward shard dst, for the cross
// handler when the next window begins. Call it from src's own execution
// (one of its events, or the global phase sending for src), with
// DeliverAt more than the lookahead later; the merge panics otherwise.
func (p *ParallelEngine) SendCross(src, dst int, m CrossMsg) {
	p.out[p.cur][src][dst] = append(p.out[p.cur][src][dst], m)
	if m.DeliverAt < p.due[src] { // rarely true, so workers seldom share a line
		p.due[src] = m.DeliverAt
	}
}

// flip starts a new outbox generation; the next window drains the other.
func (p *ParallelEngine) flip() {
	p.cur ^= 1
	for i := range p.due {
		p.due[i] = math.Inf(1)
	}
}

// tieLog is the log2 size of the hashed set mergeInto finds ties with.
const tieLog = 14

// mergeInto appends every drained outbox toward dst to dst's own and
// hands that batch to the cross handler, messages with one DeliverAt in
// stable W0 order (equal keys are one sender's, in its send order). The
// engine orders distinct times, so a batch with no hashed tie is unsorted.
func (p *ParallelEngine) mergeInto(dst int) {
	out := p.out[p.cur^1]
	in := out[dst][dst]
	for src, row := range out {
		if src != dst {
			in = append(in, row[dst]...)
			row[dst] = row[dst][:0]
		}
	}
	seen := &p.seen[dst]
	clear(seen[:])
	for _, m := range in {
		h := math.Float64bits(m.DeliverAt) * 0x9e3779b97f4a7c15 >> (64 - tieLog)
		if seen[h/64]&(1<<(h%64)) != 0 {
			slices.SortStableFunc(in, func(a, b CrossMsg) int {
				return cmp.Or(cmp.Compare(a.DeliverAt, b.DeliverAt), cmp.Compare(a.W0, b.W0))
			})
			break
		}
		seen[h/64] |= 1 << (h % 64)
	}
	en := p.shards[dst]
	for i := range in {
		if in[i].DeliverAt < en.Now() {
			panic(fmt.Sprintf("des: cross message into shard %d at %v behind its clock %v (lookahead violated)",
				dst, in[i].DeliverAt, en.Now()))
		}
		p.onCross(dst, in[i])
	}
	out[dst][dst] = in[:0]
}

// runWindow hands every shard its batch and fires its events strictly
// before limit, on up to workers goroutines. Shard i touches only its own
// engine and outboxes and the drained outboxes toward it, so the worker
// count is invisible to the simulation.
func (p *ParallelEngine) runWindow(limit Time, workers int) {
	p.next.Store(0)
	for w := 1; w < min(workers, len(p.shards)); w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(limit)
		}()
	}
	p.work(limit) // the calling goroutine is a worker too
	p.wg.Wait()
}

// work runs the shards runWindow has not handed out yet.
func (p *ParallelEngine) work(limit Time) {
	for i := int(p.next.Add(1)) - 1; i < len(p.shards); i = int(p.next.Add(1)) - 1 {
		p.mergeInto(i)
		p.shards[i].RunBefore(limit)
	}
}

// Windows returns the number of parallel window phases executed, for
// observability in tests and benchmarks.
func (p *ParallelEngine) Windows() uint64 { return p.windows }

// Executed returns the total number of events fired across every shard
// and the global engine, counting each engine once.
func (p *ParallelEngine) Executed() uint64 {
	total := p.global.Executed()
	for _, sh := range p.shards {
		if sh != p.global {
			total += sh.Executed()
		}
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
		for _, gen := range p.out {
			for j := range gen[i] {
				gen[i][j] = gen[i][j][:0]
			}
		}
	}
	p.windows = 0
	p.flip()
}

// Run executes the simulation to horizon: events at or before the
// horizon fire (shard events concurrently inside safe windows, global
// events serially at barriers), and every engine finishes with Now() at
// the horizon. The serial engine runs the global engine's own Run. Run
// may be called again with a later horizon to continue the execution.
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
		// The earliest shard event may still be a message in an outbox.
		tmin := slices.Min(p.due)
		for _, sh := range p.shards {
			if t, ok := sh.NextEventTime(); ok && t < tmin {
				tmin = t
			}
		}
		if gt > horizon && tmin > horizon {
			break
		}
		if gt <= tmin {
			// Global phase: barrier every shard at gt and run the global
			// events there; their sends join the next window's batch.
			for _, sh := range p.shards {
				sh.AdvanceTo(gt)
			}
			p.global.RunBefore(math.Nextafter(gt, math.Inf(1)))
			continue
		}
		p.flip()
		p.runWindow(min(tmin+p.lookahead, gt, limitH), workers)
		p.windows++
	}
	for _, sh := range p.shards {
		sh.AdvanceTo(horizon)
	}
	p.global.AdvanceTo(horizon)
}
