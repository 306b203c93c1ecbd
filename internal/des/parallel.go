package des

import (
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
//   - Window phase: with tmin the earliest pending shard event (or the
//     Mail's earliest Due) and gt the earliest pending global event, all
//     shards concurrently fire their events in [tmin, W) where W =
//     min(tmin+lookahead, gt, horizon). No event one shard's execution
//     causes on another is due sooner than lookahead after its cause, so
//     none is due before W — the classical conservative-PDES safety
//     argument.
//   - Global phase: when gt <= tmin, every shard is advanced to exactly
//     gt (a barrier; AdvanceTo panics if a shard still has an earlier
//     event, so the invariant is machine-checked) and the global events
//     at gt run serially, free to read and mutate any shard's state.
//
// Events one shard causes on another wait in the layer above's Mail: a
// window first has every shard Merge what was caused toward it since the
// last window began, then runs it. Neither the batch an event joins nor
// its order within the batch may depend on the partition, so one
// node's same-instant events meet alike on every shard and worker count
// (Rönngren and Liljenstam, "On event ordering in parallel discrete
// event simulation", PADS 1999): both counts are execution.
//
// With lookahead 0 the one shard is the global engine, and Run is its
// own Run in (t, seq) order. One shard with lookahead is windowed.
type ParallelEngine struct {
	shards    []*Engine
	global    *Engine
	lookahead Time
	mail      Mail
	windows   uint64
	// next is the next shard a window's workers take; wg waits for them.
	next atomic.Int64
	wg   sync.WaitGroup
	one  [1]*Engine // backs shards on one shard, saving an allocation
}

// Mail holds the events one shard's execution causes on another until
// the window that runs them begins. The layer above keeps it, since only
// it knows what such an event carries and in what order same-instant
// ones run. ParallelEngine calls Due and Flip between windows, and
// Merge(dst) on shard dst's worker as each window begins, concurrently
// for distinct dst.
type Mail interface {
	// Due returns the earliest time held since the last Flip (+Inf if
	// nothing is).
	Due() Time
	// Flip starts a new generation: what is held so far goes to the
	// window about to begin, what is caused from now on to the next.
	Flip()
	// Merge schedules on shard dst's engine everything of the previous
	// generation caused toward it, in an order no shard or worker count
	// changes.
	Merge(dst int)
}

// NewParallelEngine returns a coordinator over the given number of
// shards. lookahead is the amount of simulated time a window may run
// past the earliest pending event, and the layer above must guarantee no
// event one shard causes on another is due sooner than lookahead after
// its cause. It must be positive, or 0 for the one-shard serial engine.
// A windowed coordinator needs a Mail (SetMail) before it runs.
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
	for i := range p.shards {
		p.shards[i] = NewEngine()
	}
	return p
}

// serial reports whether the engine set is the one-shard serial engine.
func (p *ParallelEngine) serial() bool { return p.lookahead == 0 }

// NumShards returns the shard count.
func (p *ParallelEngine) NumShards() int { return len(p.shards) }

// Shard returns shard i's engine (on the serial engine, the global
// engine). Scheduling onto it is only safe from that shard's own events,
// from the global phase, or while the coordinator is idle.
func (p *ParallelEngine) Shard(i int) *Engine { return p.shards[i] }

// Global returns the engine for cross-cutting events. Its handlers run
// with every shard barriered at the event's exact time.
func (p *ParallelEngine) Global() *Engine { return p.global }

// SetMail installs the cross-shard Mail the windows drain.
func (p *ParallelEngine) SetMail(m Mail) { p.mail = m }

// runWindow has every shard merge its batch and fire its events strictly
// before limit, on up to workers goroutines. Shard i touches only its own
// engine and, through Merge(i), what the Mail holds toward it, so the
// worker count is invisible to the simulation.
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
		p.mail.Merge(i)
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
// queues, recycling pooled events. The Mail is the layer above's to
// reset.
func (p *ParallelEngine) Reset() {
	p.global.Reset()
	if p.serial() {
		return
	}
	for _, sh := range p.shards {
		sh.Reset()
	}
	p.windows = 0
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
		// The earliest shard event may still be held by the Mail.
		tmin := p.mail.Due()
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
			// events there; what they cause on a shard joins the next
			// window's batch.
			for _, sh := range p.shards {
				sh.AdvanceTo(gt)
			}
			p.global.RunBefore(math.Nextafter(gt, math.Inf(1)))
			continue
		}
		p.mail.Flip()
		p.runWindow(min(tmin+p.lookahead, gt, limitH), workers)
		p.windows++
	}
	for _, sh := range p.shards {
		sh.AdvanceTo(horizon)
	}
	p.global.AdvanceTo(horizon)
}
