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
// Tarjan, JACM 1990) with hexadecimal digits. Simulated time never goes
// backwards, and the IEEE-754 bits of a nonnegative float64 order as the
// number does, so an event's key is the bit pattern of its time. A key
// lives in bucket p<<4 | d, where p is the highest hex digit in which it
// differs from the last popped minimum and d is its digit there; bucket
// 0 holds the keys equal to that minimum. A pop with bucket 0 empty
// moves the lowest non-empty bucket's keys down around its least key,
// each key about five times in its life (eight with one-bit digits).
// Each bucket is a doubly linked list in scheduling order that keeps its
// least key, so bucket 0 fires in (t, seq) order with no comparisons, a
// cancel unlinks its event at once, and only a cancel of a bucket's
// least key sends a later peek down its list.
//
// An event's slot is 40 bytes in two halves: the queue's (time and
// bucket links, 16 bytes) in one array, four to a cache line, and the
// cold one that scheduling, firing and cancelling touch, a payload
// (argument, generation and a 2-byte label id, 16 bytes) in a parallel
// array and one ArgHandler word in fixed-size chunks. Every event has
// that one form, an ArgHandler with its argument under a label each
// engine interns once (Engine.Label).
//
// The kernel is allocation-free in steady state: fired and cancelled
// events return their slab slot to a free list, and ScheduleLabel lets
// periodic schedulers reuse one long-lived callback and one interned
// label instead of allocating a closure or looking a label up per
// event.
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

// Handler is a callback without an argument, the form Schedule wraps
// into an ArgHandler.
type Handler func()

// ArgHandler is the callback invoked when an event fires, with the
// event's argument. It runs at the event's scheduled time; Engine.Now()
// returns that time for the duration of the call. One long-lived
// ArgHandler can back any number of events, distinguished by arg, so
// schedulers on hot paths do not allocate a closure per event.
type ArgHandler func(arg uint64)

// Label is an event's trace label: an id in its engine's label table
// (Engine.Label). The zero Label names "".
type Label uint16

// maxLabels is the size of the Label id space.
const maxLabels = 1 << 16

// TraceFn observes event firings. It is called once per fired event,
// immediately before the event's callback runs, with the event's time
// and debug label. Cancelled events are never traced. The hook sits on
// the kernel's hottest path, so implementations must not allocate;
// recorders (e.g. the sim layer's time-series tracing) write into
// pre-sized ring buffers.
type TraceFn func(t Time, label string)

// Event is the queue's half of one slot of an engine's event slab: the
// time and the bucket links, 16 bytes and no pointers, so a bucket walk
// loads four slots per cache line and the collector never scans it.
// Slots are owned by the engine and recycled after their event fires or
// is cancelled; user code only ever holds EventRef handles.
type Event struct {
	t Time
	// next and prev link the slot into its bucket (next alone links a
	// free slot into the free list); 0 ends a list.
	next, prev int32
}

// payload is a slot's cold half but the call: the argument, the
// generation EventRefs are checked against, and the label id.
type payload struct {
	arg uint64
	gen uint32
	lbl Label
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

// nBuckets is the bucket count: 16 hex digit positions of 16 digits.
const nBuckets = 256

// bucket is one bucket of the radix heap: the ends of its list and its
// least key. min is exact unless the bucket's stale bit is set, when it
// is only a lower bound (the cancelled least key).
type bucket struct {
	head, tail int32
	min        uint64
}

// Engine is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use.
type Engine struct {
	now Time
	// slab holds the queue half of every event slot, pay its payload and
	// calls its callback in fixed-size chunks, so growing any of them
	// copies no pointers. Slot 0 is never used, so a zero link or
	// EventRef means none.
	slab  []Event
	pay   []payload
	calls []*callChunk
	free  int32 // head of the free-slot list
	live  int   // queued events
	// last is the key of the most recently popped minimum, at most every
	// queued key; peeking never moves it. Bit b of used is set when
	// bucket b is non-empty, and of stale when its min was cancelled.
	last        uint64
	used, stale [nBuckets / 64]uint64
	// executed counts events that have fired (not cancelled ones).
	executed uint64
	// trace, when non-nil, observes every fired event.
	trace TraceFn
	bk    [nBuckets]bucket
	// labels is the label table, indexed by Label. It starts in the
	// inline array, so an engine with a dozen labels allocates none.
	labels    []string
	lblInline [16]string
	// A ParallelEngine allocates its shard engines back to back and runs
	// them concurrently; the trailing line of padding keeps one shard's
	// hot fields off the cache lines of the next.
	_ [64]byte
}

// initSlots is an engine's first slot capacity, so a small simulation
// never grows its slab and payload arrays and a large one skips their
// eight smallest growths.
const initSlots = 256

// NewEngine returns an engine positioned at time 0 with an empty queue.
func NewEngine() *Engine {
	en := &Engine{slab: make([]Event, 1, initSlots), pay: make([]payload, 1, initSlots)}
	en.labels = append(en.lblInline[:0], "")
	return en
}

// callBits sizes a chunk of calls, the callback part of the event slots:
// 4096 of them, 32 KiB, an allocation large enough to carry no
// per-object header, so a chunk wastes nothing.
const callBits = 12

type callChunk [1 << callBits]ArgHandler

// call returns slot s's call.
func (en *Engine) call(s int32) *ArgHandler { return &en.calls[s>>callBits][s&(1<<callBits-1)] }

// Label returns name's id in en's label table, interning it on first
// use. Ids are per engine and survive Reset. Interning scans the table,
// so a scheduler on a hot path interns its label once and schedules
// with ScheduleLabel. It panics when name would be the table's 65 537th
// distinct label.
func (en *Engine) Label(name string) Label {
	for i, l := range en.labels {
		if l == name {
			return Label(i)
		}
	}
	if len(en.labels) == maxLabels {
		panic(fmt.Sprintf("des: label %q overflows the engine's %d-label table", name, maxLabels))
	}
	en.labels = append(en.labels, name)
	return Label(len(en.labels) - 1)
}

// Now returns the current simulated time. During an event handler this is
// the handler's scheduled fire time.
func (en *Engine) Now() Time { return en.now }

// Reset returns the engine to time 0 with an empty queue, returning every
// pending event's slot to the free list so a rewired simulation
// reuses the warm slab instead of reallocating it. Outstanding EventRefs
// go stale (Cancel on them stays a harmless no-op); the executed counter
// restarts; an installed trace hook and the label table are kept.
func (en *Engine) Reset() {
	for w, used := range en.used {
		for ; used != 0; used &= used - 1 {
			for s := en.bk[w<<6|bits.TrailingZeros64(used)].head; s != 0; {
				next := en.slab[s].next
				en.release(s)
				s = next
			}
		}
	}
	en.bk = [nBuckets]bucket{}
	en.used, en.stale = [nBuckets / 64]uint64{}, [nBuckets / 64]uint64{}
	en.last, en.live = 0, 0
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

// Schedule registers fn to run at absolute time t, wrapped in an
// ArgHandler closure (one allocation per call).
//
//gcslint:allow testonly — only benchmark/trace_test.go calls it; ROADMAP 1(b) deletes it with that caller
func (en *Engine) Schedule(t Time, label string, fn Handler) EventRef {
	return en.ScheduleArg(t, label, func(uint64) { fn() }, 0)
}

// ScheduleArg registers fn(arg) to run at absolute time t under label,
// interned on every call, and returns a handle that can be cancelled.
// Scheduling in the past (t < Now) panics: the network model has no
// retroactive events, so this is always a bug in the caller. A time of
// -0 is scheduled as +0.
//
//gcslint:zeroalloc
func (en *Engine) ScheduleArg(t Time, label string, fn ArgHandler, arg uint64) EventRef {
	return en.ScheduleLabel(t, en.Label(label), fn, arg)
}

// ScheduleLabel registers fn(arg) to run at absolute time t under lbl,
// an id from en.Label. It is ScheduleArg without the label lookup, for
// schedulers that intern their label once.
//
//gcslint:zeroalloc
func (en *Engine) ScheduleLabel(t Time, lbl Label, fn ArgHandler, arg uint64) EventRef {
	if fn == nil {
		panic("des: nil handler")
	}
	if math.IsNaN(t) {
		panic("des: schedule at NaN time")
	}
	if t < en.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v (%s)", t, en.now, en.labels[lbl]))
	}
	t += 0 // -0 keys as +0
	s := en.free
	if s != 0 {
		en.free = en.slab[s].next
	} else {
		s = int32(len(en.slab))
		en.slab = append(en.slab, Event{})
		en.pay = append(en.pay, payload{})
		if int(s) >= len(en.calls)<<callBits {
			en.calls = append(en.calls, new(callChunk))
		}
	}
	*en.call(s) = fn
	p := &en.pay[s]
	p.arg, p.lbl = arg, lbl
	e := &en.slab[s]
	e.t = t
	en.live++
	en.link(s, e, math.Float64bits(t))
	return EventRef{slot: s, gen: p.gen}
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
	if en.pay[r.slot].gen != r.gen {
		return
	}
	en.unlink(&en.slab[r.slot])
	en.live--
	en.release(r.slot)
}

// release invalidates outstanding refs to slot s's event, drops its
// callback and returns the slot to the free list.
//
//gcslint:zeroalloc
func (en *Engine) release(s int32) {
	en.pay[s].gen++
	*en.call(s) = nil
	en.slab[s].next = en.free
	en.free = s
}

// fire advances time to slot s's event, frees the slot, and runs the
// callback. The slot is released before the callback so the callback
// may schedule new events that reuse it; outstanding refs are already
// stale by then.
//
//gcslint:zeroalloc
func (en *Engine) fire(s int32) {
	en.now = en.slab[s].t
	en.executed++
	p := &en.pay[s]
	fn, arg, lbl := *en.call(s), p.arg, p.lbl
	en.release(s)
	if en.trace != nil {
		en.trace(en.now, en.labels[lbl])
	}
	fn(arg)
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

// ---- monotone radix heap on the hex digits of t's bits ----

// bucketOf returns the bucket of a key at least last: 0 for last
// itself, else p<<4 | d for the highest hex digit p in which the key
// differs from last and the key's digit d there (d > 0, as the key is
// the larger). A larger key never lands in a lower bucket.
func (en *Engine) bucketOf(key uint64) int {
	x := key ^ en.last
	if x == 0 {
		return 0
	}
	sh := (bits.Len64(x) - 1) &^ 3 // the lowest bit of digit p
	return sh<<2 | int(key>>sh&15)
}

// lowest returns the lowest non-empty bucket of a non-empty queue, which
// holds every key below the other buckets' keys.
func (en *Engine) lowest() int {
	w := 0
	for en.used[w] == 0 {
		w++
	}
	return w<<6 | bits.TrailingZeros64(en.used[w])
}

// headKey returns the lowest non-empty bucket and its least key, the
// queue's, walking the bucket's list only when a cancel took its least
// key. It never moves last.
func (en *Engine) headKey() (int, uint64) {
	b := en.lowest()
	k := &en.bk[b]
	if w, m := b>>6, uint64(1)<<(b&63); en.stale[w]&m != 0 {
		k.min = math.MaxUint64
		for s := k.head; s != 0; s = en.slab[s].next {
			k.min = min(k.min, math.Float64bits(en.slab[s].t))
		}
		en.stale[w] &^= m
	}
	return b, k.min
}

// headTime returns the least queued time of a non-empty queue.
func (en *Engine) headTime() Time {
	_, key := en.headKey()
	return math.Float64frombits(key)
}

// pop unlinks and returns the slot at the head of a non-empty queue: the
// first event of bucket 0, refilled if empty.
func (en *Engine) pop() int32 {
	if en.used[0]&1 == 0 {
		en.refill()
	}
	s := en.bk[0].head
	en.unlink(&en.slab[s])
	en.live--
	return s
}

// refill moves last up to the least key and redistributes the lowest
// non-empty bucket, whose keys all land in lower buckets, the least in
// bucket 0; every other bucket's keys keep their bucket, since last
// moved only in digits below theirs. The lower buckets are empty, so
// each keeps the scheduling order of the list it came from.
//
//gcslint:zeroalloc
func (en *Engine) refill() {
	b, key := en.headKey()
	en.last = key
	s := en.bk[b].head
	en.bk[b] = bucket{}
	en.used[b>>6] &^= 1 << (b & 63)
	for s != 0 {
		e := &en.slab[s]
		next := e.next
		en.link(s, e, math.Float64bits(e.t))
		s = next
	}
}

// link appends e, slot s's event, with key key, to the tail of its
// bucket and keeps the bucket's least key.
//
//gcslint:zeroalloc
func (en *Engine) link(s int32, e *Event, key uint64) {
	b := en.bucketOf(key)
	k := &en.bk[b]
	e.next, e.prev = 0, k.tail
	if e.prev != 0 {
		en.slab[e.prev].next = s
		k.min = min(k.min, key)
	} else {
		k.head, k.min = s, key
		en.used[b>>6] |= 1 << (b & 63)
	}
	k.tail = s
}

// unlink removes e from its bucket. Removing the least key of a bucket
// other than 0 (whose keys all equal last) leaves min a lower bound,
// marked stale for the next headKey.
func (en *Engine) unlink(e *Event) {
	key := math.Float64bits(e.t)
	b := en.bucketOf(key)
	k := &en.bk[b]
	if e.prev != 0 {
		en.slab[e.prev].next = e.next
	} else {
		k.head = e.next
	}
	if e.next != 0 {
		en.slab[e.next].prev = e.prev
	} else {
		k.tail = e.prev
	}
	w, m := b>>6, uint64(1)<<(b&63)
	switch {
	case k.head == 0:
		en.used[w] &^= m
		en.stale[w] &^= m
	case key == k.min && b != 0:
		en.stale[w] |= m
	}
}
