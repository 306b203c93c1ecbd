// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel models the continuous-time executions of the paper's Timed
// I/O Automata network model (Kuhn, Locher, Oshman, MIT-CSAIL-TR-2009-022,
// Section 3.2): time is a nonnegative real (float64), events fire in
// nondecreasing time order, and ties are broken deterministically by
// scheduling order, so a simulation with a fixed seed is bit-reproducible.
//
// All higher layers (clocks, transport, algorithms) are driven by this
// kernel. Between events every continuous quantity in the system is
// piecewise linear, so evaluating state lazily at event boundaries is
// exact and introduces no discretization error.
//
// The event queue is a monotone radix heap (Ahuja, Mehlhorn, Orlin and
// Tarjan, JACM 1990). Simulated time never goes backwards, and the
// IEEE-754 bits of a nonnegative float64 order as the number does, so an
// event's key is the bit pattern of its time. Bucket b holds the events
// whose key first differs from the last popped minimum at bit b-1;
// bucket 0 holds the events at exactly that minimum. Scheduling appends
// to one bucket, and a pop with bucket 0 empty redistributes the lowest
// non-empty bucket around its least key. Each bucket is a doubly linked
// list in scheduling order, threaded through one slab of events, so
// bucket 0 fires in (t, seq) order with no comparisons and a cancel
// unlinks its event at once.
//
// The kernel is allocation-free in steady state: fired and cancelled
// events return their slab slot to a free list, and ScheduleArg lets
// periodic schedulers reuse one long-lived callback instead of
// allocating a closure per event.
package des

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in simulated real time, in seconds. The simulation
// starts at time 0, matching the paper's convention that all hardware
// clocks read 0 at the beginning of the execution.
type Time = float64

// Handler is the callback invoked when an event fires. It runs at the
// event's scheduled time; Engine.Now() returns that time for the duration
// of the call.
type Handler func()

// ArgHandler is the argument-carrying form of Handler: one long-lived
// ArgHandler can back any number of events, distinguished by arg, so
// schedulers on hot paths do not allocate a closure per event.
type ArgHandler func(arg uint64)

// TraceFn observes event firings. It is called once per fired event,
// immediately before the event's callback runs, with the event's time
// and debug label. Cancelled events are never traced. The hook sits on
// the kernel's hottest path, so implementations must not allocate;
// recorders (e.g. the sim layer's time-series tracing) write into
// pre-sized ring buffers.
type TraceFn func(t Time, label string)

// Event is the queue's half of one slot of an engine's event slab: the
// time, argument and bucket links, and no pointers, so the slab grows by
// a plain copy and the collector never scans it. The callback and label
// are the slot's call. Slots are owned by the engine and recycled after
// their event fires or is cancelled; user code only ever holds EventRef
// handles.
type Event struct {
	t   Time
	arg uint64
	gen uint32
	// next and prev link the slot into its bucket (next alone links a
	// free slot into the free list); 0 ends a list.
	next, prev int32
}

// EventRef is a generation-checked handle to a scheduled event: its slot
// in the engine's slab and the slot's generation when it was scheduled.
// The zero EventRef refers to no event. A ref goes stale the instant its
// event fires or is cancelled; stale refs are safe to hold and to Cancel
// (a no-op), even after the engine reuses the slot for a new schedule.
type EventRef struct {
	slot int32
	gen  uint32
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use.
type Engine struct {
	now Time
	// slab holds the queue half of every event slot and calls the
	// callback half, in fixed-size chunks, so growing either copies no
	// pointers. Slot 0 is never used, so a zero link or EventRef means
	// none.
	slab  []Event
	calls []*callChunk
	free  int32 // head of the free-slot list
	live  int   // queued events
	// last is the key of the most recently popped minimum: every queued
	// key is at least last. min caches the least queued key while minOK;
	// peeking fills it without moving last, so a later Schedule before
	// the head stays legal.
	last, min  uint64
	minOK      bool
	used       uint64 // bit b set when bucket b is non-empty
	head, tail [64]int32
	// executed counts events that have fired (not cancelled ones).
	executed uint64
	// trace, when non-nil, observes every fired event.
	trace TraceFn
	// A ParallelEngine allocates its shard engines back to back and runs
	// them concurrently; the trailing line of padding keeps one shard's
	// hot fields off the cache lines of the next.
	_ [64]byte
}

// NewEngine returns an engine positioned at time 0 with an empty queue.
func NewEngine() *Engine {
	return &Engine{slab: make([]Event, 1)}
}

// call is the callback half of an event slot.
type call struct {
	fn    Handler
	afn   ArgHandler
	label string
}

// callBits sizes a chunk of calls: 1024 of them, 32 KiB, an allocation
// large enough to carry no per-object header, so a chunk wastes nothing.
const callBits = 10

type callChunk [1 << callBits]call

// call returns slot s's call.
func (en *Engine) call(s int32) *call { return &en.calls[s>>callBits][s&(1<<callBits-1)] }

// Now returns the current simulated time. During an event handler this is
// the handler's scheduled fire time.
func (en *Engine) Now() Time { return en.now }

// Reset returns the engine to time 0 with an empty queue, returning every
// pending event's slot to the free list so a rewired simulation reuses
// the warm slab instead of reallocating it. Outstanding EventRefs go
// stale (Cancel on them stays a harmless no-op); the executed counter
// restarts; an installed trace hook is kept.
func (en *Engine) Reset() {
	for used := en.used; used != 0; used &= used - 1 {
		for s := en.head[bits.TrailingZeros64(used)]; s != 0; {
			e := &en.slab[s]
			next := e.next
			en.release(s, e)
			s = next
		}
	}
	en.head, en.tail = [64]int32{}, [64]int32{}
	en.used, en.last, en.minOK, en.live = 0, 0, false, 0
	en.now = 0
	en.executed = 0
}

// Executed returns the number of events that have fired so far.
func (en *Engine) Executed() uint64 { return en.executed }

// SetTraceHook installs fn as the engine's event tracer (nil removes
// it). The hook fires for every executed event, before its callback;
// see TraceFn for the contract.
func (en *Engine) SetTraceHook(fn TraceFn) { en.trace = fn }

// Pending returns the number of events in the queue. Cancel unlinks its
// event at once, so every counted event will fire unless cancelled
// later.
func (en *Engine) Pending() int { return en.live }

// Schedule registers fn to run at absolute time t and returns a handle
// that can be cancelled. Scheduling in the past (t < Now) panics: the
// network model has no retroactive events, so this is always a bug in the
// caller. A time of -0 is scheduled as +0.
//
//gcslint:zeroalloc
func (en *Engine) Schedule(t Time, label string, fn Handler) EventRef {
	return en.schedule(t, label, fn, nil, 0)
}

// ScheduleArg registers fn(arg) to run at absolute time t. It is the
// zero-allocation counterpart of Schedule for callers that would
// otherwise close over per-event state.
//
//gcslint:zeroalloc
func (en *Engine) ScheduleArg(t Time, label string, fn ArgHandler, arg uint64) EventRef {
	return en.schedule(t, label, nil, fn, arg)
}

//gcslint:zeroalloc
func (en *Engine) schedule(t Time, label string, fn Handler, afn ArgHandler, arg uint64) EventRef {
	if math.IsNaN(t) {
		panic("des: schedule at NaN time")
	}
	if t < en.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v (%s)", t, en.now, label))
	}
	t += 0 // -0 keys as +0
	s := en.free
	if s != 0 {
		en.free = en.slab[s].next
	} else {
		s = int32(len(en.slab))
		en.slab = append(en.slab, Event{})
		if int(s) >= len(en.calls)<<callBits {
			en.calls = append(en.calls, new(callChunk))
		}
	}
	e := &en.slab[s]
	e.t = t
	e.arg = arg
	*en.call(s) = call{fn, afn, label}
	key := math.Float64bits(t)
	if en.live == 0 || en.minOK && key < en.min {
		en.min, en.minOK = key, true
	}
	en.live++
	en.link(s, e, en.bucket(key))
	return EventRef{slot: s, gen: e.gen}
}

// ScheduleAfter registers fn to run d seconds of simulated time from now.
func (en *Engine) ScheduleAfter(d Time, label string, fn Handler) EventRef {
	return en.Schedule(en.now+d, label, fn)
}

// ScheduleAfterArg registers fn(arg) to run d seconds from now.
func (en *Engine) ScheduleAfterArg(d Time, label string, fn ArgHandler, arg uint64) EventRef {
	return en.ScheduleArg(en.now+d, label, fn, arg)
}

// Cancel unlinks the referenced event from its bucket and frees its
// slot. A cancelled event never fires. Cancelling a zero or stale ref
// (already fired, already cancelled, or its slot reused) is a no-op,
// mirroring the paper's cancel(timer-ID) semantics.
func (en *Engine) Cancel(r EventRef) {
	if r.slot == 0 {
		return
	}
	e := &en.slab[r.slot]
	if e.gen != r.gen {
		return
	}
	key := math.Float64bits(e.t)
	en.unlink(e, en.bucket(key))
	en.live--
	if key == en.min && en.used&1 == 0 {
		en.minOK = false
	}
	en.release(r.slot, e)
}

// release invalidates outstanding refs to e, slot s's event, and
// returns the slot to the free list.
//
//gcslint:zeroalloc
func (en *Engine) release(s int32, e *Event) {
	e.gen++
	*en.call(s) = call{}
	e.next = en.free
	en.free = s
}

// fire advances time to e, slot s's event, frees the slot, and runs
// the callback. The slot is released before the callback so the
// callback may schedule new events that reuse it; outstanding refs are
// already stale by then.
//
//gcslint:zeroalloc
func (en *Engine) fire(s int32, e *Event) {
	en.now = e.t
	en.executed++
	c, arg := *en.call(s), e.arg
	en.release(s, e)
	if en.trace != nil {
		en.trace(en.now, c.label)
	}
	if c.afn != nil {
		c.afn(arg)
	} else {
		c.fn()
	}
}

// Step fires the single earliest pending event, if any, and reports
// whether an event fired.
func (en *Engine) Step() bool {
	if en.live == 0 {
		return false
	}
	en.fire(en.pop())
	return true
}

// Run fires events in order until the queue is empty or the next event
// would fire strictly after horizon, then advances Now() to horizon so
// that callers can sample end-of-run state. Looking at a head beyond the
// horizon commits nothing, so a later Schedule before that head is
// still in order.
func (en *Engine) Run(horizon Time) {
	for en.live > 0 && en.headTime() <= horizon {
		en.fire(en.pop())
	}
	if en.now < horizon {
		en.now = horizon
	}
}

// RunBefore fires events in order while the head's time is strictly less
// than limit, without ever advancing Now beyond the last fired event
// (it is the inner loop of the parallel coordinator). It returns the
// number of events fired.
func (en *Engine) RunBefore(limit Time) int {
	fired := 0
	for en.live > 0 && en.headTime() < limit {
		en.fire(en.pop())
		fired++
	}
	return fired
}

// AdvanceTo moves Now forward to t without firing anything. It panics if
// an event earlier than t is pending — advancing over it would fire it
// in the past later. Calls with t <= Now are no-ops, so callers can
// advance a set of engines to a common barrier time unconditionally.
func (en *Engine) AdvanceTo(t Time) {
	if t <= en.now {
		return
	}
	if head, ok := en.NextEventTime(); ok && head < t {
		panic(fmt.Sprintf("des: AdvanceTo(%v) over pending event at %v", t, head))
	}
	en.now = t
}

// RunUntilIdle fires events until none remain. It panics if more than
// maxEvents fire, as a guard against runaway self-rescheduling loops.
func (en *Engine) RunUntilIdle(maxEvents uint64) {
	start := en.executed
	for en.Step() {
		if en.executed-start > maxEvents {
			panic(fmt.Sprintf("des: exceeded %d events (runaway schedule?)", maxEvents))
		}
	}
}

// NextEventTime returns the fire time of the earliest pending event and
// true, or (0, false) if the queue is empty.
func (en *Engine) NextEventTime() (Time, bool) {
	if en.live == 0 {
		return 0, false
	}
	return en.headTime(), true
}

// ---- monotone radix heap keyed on the bits of t ----

// bucket returns the bucket of a key at least last.
func (en *Engine) bucket(key uint64) int { return bits.Len64(key ^ en.last) }

// headTime returns the least queued time of a non-empty queue, filling
// the min cache if needed. It never moves last.
func (en *Engine) headTime() Time {
	if !en.minOK {
		en.scanMin()
	}
	return math.Float64frombits(en.min)
}

// scanMin fills the min cache from the lowest non-empty bucket, which
// holds every key below the other buckets' keys.
func (en *Engine) scanMin() {
	en.min = math.MaxUint64
	for s := en.head[bits.TrailingZeros64(en.used)]; s != 0; {
		e := &en.slab[s]
		en.min = min(en.min, math.Float64bits(e.t))
		s = e.next
	}
	en.minOK = true
}

// pop unlinks and returns the head of a non-empty queue: the first event
// of bucket 0, refilled if empty.
func (en *Engine) pop() (int32, *Event) {
	if en.used&1 == 0 {
		en.refill()
	}
	s := en.head[0]
	e := &en.slab[s]
	next := e.next
	en.head[0] = next
	if next != 0 {
		en.slab[next].prev = 0
	} else {
		en.tail[0] = 0
		en.used &^= 1
		en.minOK = false
	}
	en.live--
	return s, e
}

// refill moves last up to the least key and redistributes the lowest
// non-empty bucket, whose keys all land in lower buckets, the least in
// bucket 0. The lower buckets are empty, so each keeps the scheduling
// order of the list it came from.
//
//gcslint:zeroalloc
func (en *Engine) refill() {
	if !en.minOK {
		en.scanMin()
	}
	en.last = en.min
	b := bits.TrailingZeros64(en.used)
	s := en.head[b]
	en.head[b], en.tail[b] = 0, 0
	en.used &^= 1 << b
	for s != 0 {
		e := &en.slab[s]
		next := e.next
		en.link(s, e, en.bucket(math.Float64bits(e.t)))
		s = next
	}
}

// link appends e, slot s's event, to the tail of bucket b.
//
//gcslint:zeroalloc
func (en *Engine) link(s int32, e *Event, b int) {
	e.next, e.prev = 0, en.tail[b]
	if e.prev != 0 {
		en.slab[e.prev].next = s
	} else {
		en.head[b] = s
		en.used |= 1 << b
	}
	en.tail[b] = s
}

// unlink removes e from bucket b.
func (en *Engine) unlink(e *Event, b int) {
	if e.prev != 0 {
		en.slab[e.prev].next = e.next
	} else {
		en.head[b] = e.next
	}
	if e.next != 0 {
		en.slab[e.next].prev = e.prev
	} else {
		en.tail[b] = e.prev
	}
	if en.head[b] == 0 {
		en.used &^= 1 << b
	}
}
