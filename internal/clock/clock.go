// Package clock models the drifting hardware clocks of the paper's
// Section 3.3: each node u has a continuous hardware clock H_u whose rate
// stays within [1-rho, 1+rho] times real time, with H_u(0) = 0.
//
// Clocks are piecewise linear: the rate changes only at discrete
// breakpoints (SetRate calls from the harness's rate drivers, the lower
// bound's adversarial schedules included), so reading a clock between
// events is exact. The package also provides subjective timers — "fire
// when H_u has advanced by dH" — which are the primitive behind the
// algorithm's set_timer(dt, id) calls. Subjective timers stay correct
// across rate changes: timer targets are fixed
// hardware readings, so a rate change only moves the real-time instant
// at which each target is reached.
//
// Timers are batched behind a single engine event per clock: pending
// timers sit in a per-clock min-heap ordered by target reading — an
// order that is invariant under rate changes — and only the heap head
// owns an engine event. A rate change therefore re-arms one event in
// O(1) engine operations instead of rescheduling every pending timer,
// which is what keeps the beacon-periodic workload cheap at large n.
//
// Timers are pooled: fired and cancelled Timer structs are recycled, user
// code holds generation-checked TimerRef handles, and all timer firings
// of one clock share a single long-lived engine callback, so the beacon
// hot path allocates nothing per tick.
package clock

import (
	"fmt"

	"gcs/internal/des"
)

// HardwareClock is one node's drifting hardware clock. It is owned by a
// single des.Engine and is not safe for concurrent use.
type HardwareClock struct {
	en *des.Engine

	// Piecewise-linear state: H(t) = lastH + rate*(t-lastT) for t >= lastT.
	lastT des.Time
	lastH float64
	rate  float64

	// Pending subjective timers in a 4-ary min-heap ordered by
	// (targetH, seq). Targets are hardware readings, so the heap order
	// never changes when the rate does; only the real-time instant of
	// the head moves, and headEv is re-armed to track it.
	active  []*Timer
	nextSeq uint64
	// headEv is the single engine event backing the heap head (zero when
	// no timers are pending).
	headEv des.EventRef
	// arena holds every Timer ever created for this clock, indexed by
	// Timer.id; free lists the recycled ones.
	arena []*Timer
	free  []*Timer
	// fire is the single engine callback backing all of this clock's
	// timers: it drains every due timer from the heap head and re-arms.
	fire des.ArgHandler

	// maxRate/minRate observed, for drift validation in tests.
	minRateSeen, maxRateSeen float64
}

// New returns a hardware clock reading 0 at the engine's current time,
// running at the given initial rate.
func New(en *des.Engine, initialRate float64) *HardwareClock {
	if initialRate <= 0 {
		panic("clock: nonpositive rate")
	}
	c := &HardwareClock{
		en:          en,
		lastT:       en.Now(),
		lastH:       0,
		rate:        initialRate,
		minRateSeen: initialRate,
		maxRateSeen: initialRate,
	}
	c.fire = func(uint64) { c.drainDue() }
	return c
}

// Reset returns the clock to a fresh reading of 0 at the engine's
// current time, running at initialRate, with no pending timers. It is
// the arena-reuse counterpart of New: the timer arena and free list are
// kept warm so re-arming timers after a reset allocates nothing. Call it
// after the owning engine has been Reset — pending timers are released
// without cancelling their (already recycled) engine event.
func (c *HardwareClock) Reset(initialRate float64) {
	if initialRate <= 0 {
		panic("clock: nonpositive rate")
	}
	for len(c.active) > 0 {
		tm := c.active[len(c.active)-1]
		c.active[len(c.active)-1] = nil
		c.active = c.active[:len(c.active)-1]
		c.pool(tm)
	}
	c.headEv = des.EventRef{}
	c.nextSeq = 0
	c.lastT = c.en.Now()
	c.lastH = 0
	c.rate = initialRate
	c.minRateSeen = initialRate
	c.maxRateSeen = initialRate
}

// Now returns the hardware clock reading at the engine's current time.
func (c *HardwareClock) Now() float64 {
	return c.ReadAt(c.en.Now())
}

// ReadAt returns H(t). t must not precede the last rate breakpoint; the
// simulation only ever reads clocks at or after the current event time.
func (c *HardwareClock) ReadAt(t des.Time) float64 {
	if t < c.lastT {
		panic(fmt.Sprintf("clock: read at %v before last breakpoint %v", t, c.lastT))
	}
	return c.lastH + c.rate*(t-c.lastT)
}

// RateBoundsSeen returns the minimum and maximum rates the clock has run
// at since creation. Tests use it to assert the drift bound.
func (c *HardwareClock) RateBoundsSeen() (min, max float64) {
	return c.minRateSeen, c.maxRateSeen
}

// SetRate changes the clock rate as of the engine's current time. Timer
// targets are hardware readings, so the pending-timer heap order is
// unaffected; only the single engine event backing the heap head is
// re-armed to the head's new real fire time — O(1) engine operations
// regardless of how many timers are pending. Rates must be positive;
// the paper's model requires rates in [1-rho, 1+rho] with rho < 1,
// which drivers enforce.
func (c *HardwareClock) SetRate(rate float64) {
	if rate <= 0 {
		panic("clock: nonpositive rate")
	}
	now := c.en.Now()
	c.lastH = c.ReadAt(now)
	c.lastT = now
	c.rate = rate
	if rate < c.minRateSeen {
		c.minRateSeen = rate
	}
	if rate > c.maxRateSeen {
		c.maxRateSeen = rate
	}
	if len(c.active) > 0 {
		c.armHead()
	}
}

// timeWhen returns the real time at which the clock will read hTarget,
// assuming the current rate persists. hTarget must be >= the current
// reading.
func (c *HardwareClock) timeWhen(hTarget float64) des.Time {
	now := c.en.Now()
	h := c.ReadAt(now)
	if hTarget < h {
		// Timer target already passed; fire immediately. This can only
		// happen through floating-point rounding at a breakpoint.
		return now
	}
	return now + (hTarget-h)/c.rate
}

// Timer is a pending subjective timer: it fires when the owning clock
// reaches a target reading, surviving any number of rate changes in
// between. Timers are owned and recycled by their clock; user code holds
// TimerRef handles.
type Timer struct {
	targetH float64
	seq     uint64 // insertion order, tie-break for equal targets
	label   string
	fn      func()
	id      uint64 // arena index, fixed for the Timer's lifetime
	gen     uint32
	pos     int32 // index in the clock's timer heap, -1 when pooled
}

// TimerRef is a generation-checked handle to a subjective timer. The zero
// TimerRef refers to no timer. A ref goes stale when its timer fires or
// is cancelled; stale refs are safe to hold and to cancel (a no-op),
// even after the clock recycles the Timer for a new SetTimer.
type TimerRef struct {
	tm  *Timer
	gen uint32
}

// Pending reports whether the referenced timer is still set.
func (r TimerRef) Pending() bool { return r.tm != nil && r.tm.gen == r.gen }

// SetTimer schedules fn to run when the clock has advanced by dH from its
// current reading (the paper's set_timer(dt, id)). dH must be
// nonnegative. The callback is retained until the timer fires or is
// cancelled; hot-path callers should pass a long-lived func value rather
// than a fresh closure.
func (c *HardwareClock) SetTimer(dH float64, label string, fn func()) TimerRef {
	if dH < 0 {
		panic("clock: negative timer duration")
	}
	var tm *Timer
	if n := len(c.free); n > 0 {
		tm = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		tm = &Timer{id: uint64(len(c.arena))}
		c.arena = append(c.arena, tm)
	}
	tm.targetH = c.Now() + dH
	tm.seq = c.nextSeq
	c.nextSeq++
	tm.label = label
	tm.fn = fn
	c.heapPush(tm)
	if c.active[0] == tm {
		c.armHead()
	}
	return TimerRef{tm: tm, gen: tm.gen}
}

// armHead (re)registers the single engine event to the heap head's fire
// time. Call with a nonempty heap.
func (c *HardwareClock) armHead() {
	c.en.Cancel(c.headEv)
	head := c.active[0]
	c.headEv = c.en.ScheduleArg(c.timeWhen(head.targetH), head.label, c.fire, 0)
}

// drainDue runs when the head event fires: it pops and fires every timer
// that is due at the current time (equal targets fire in insertion
// order, and a target reached exactly now by floating-point luck fires
// now rather than being re-armed for the same instant), then re-arms the
// event for the new head. Callbacks may set or cancel timers freely —
// the loop re-reads the head each iteration.
func (c *HardwareClock) drainDue() {
	c.headEv = des.EventRef{} // the firing event consumed itself
	now := c.en.Now()
	for len(c.active) > 0 {
		tm := c.active[0]
		if c.timeWhen(tm.targetH) > now {
			break
		}
		c.heapRemove(tm)
		fn := tm.fn
		c.pool(tm)
		fn()
	}
	if len(c.active) > 0 && !c.headEv.Pending() {
		// Callbacks may have armed the event themselves (via SetTimer /
		// CancelTimer on the new head); only re-arm if none did.
		c.armHead()
	}
}

// pool invalidates outstanding refs to tm and returns it to the free
// list. tm must already be out of the heap.
func (c *HardwareClock) pool(tm *Timer) {
	tm.pos = -1
	tm.gen++
	tm.fn = nil
	c.free = append(c.free, tm)
}

// CancelTimer cancels the referenced timer (the paper's cancel(id)).
// Cancelling a zero or stale ref is a no-op.
func (c *HardwareClock) CancelTimer(r TimerRef) {
	tm := r.tm
	if tm == nil || tm.gen != r.gen {
		return
	}
	wasHead := tm.pos == 0
	c.heapRemove(tm)
	c.pool(tm)
	if wasHead {
		if len(c.active) > 0 {
			c.armHead()
		} else {
			c.en.Cancel(c.headEv)
			c.headEv = des.EventRef{}
		}
	}
}

// ---- 4-ary index heap over pending timers, ordered by (targetH, seq) ----

func timerLess(a, b *Timer) bool {
	if a.targetH != b.targetH {
		return a.targetH < b.targetH
	}
	return a.seq < b.seq
}

func (c *HardwareClock) heapPush(tm *Timer) {
	c.active = append(c.active, tm)
	tm.pos = int32(len(c.active) - 1)
	c.siftUp(len(c.active) - 1)
}

// heapRemove deletes tm from the heap, restoring the invariant.
func (c *HardwareClock) heapRemove(tm *Timer) {
	h := c.active
	i := int(tm.pos)
	n := len(h) - 1
	if i != n {
		moved := h[n]
		h[i] = moved
		moved.pos = int32(i)
	}
	h[n] = nil
	c.active = h[:n]
	if i < n {
		moved := c.active[i]
		c.siftDown(i)
		c.siftUp(int(moved.pos))
	}
	tm.pos = -1
}

func (c *HardwareClock) siftUp(i int) {
	h := c.active
	tm := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !timerLess(tm, h[p]) {
			break
		}
		h[i] = h[p]
		h[i].pos = int32(i)
		i = p
	}
	h[i] = tm
	tm.pos = int32(i)
}

func (c *HardwareClock) siftDown(i int) {
	h := c.active
	n := len(h)
	tm := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		m := first
		last := first + 4
		if last > n {
			last = n
		}
		for j := first + 1; j < last; j++ {
			if timerLess(h[j], h[m]) {
				m = j
			}
		}
		if !timerLess(h[m], tm) {
			break
		}
		h[i] = h[m]
		h[i].pos = int32(i)
		i = m
	}
	h[i] = tm
	tm.pos = int32(i)
}
