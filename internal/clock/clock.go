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
// across rate changes: timer targets are fixed hardware readings, so a
// rate change only moves the real-time instant at which each target is
// reached.
//
// A timer is the seam.Timer itself: a long-lived struct with an armed
// flag in the clock's timers slice, as in rt.DriftClock. A gcs node makes
// two, so the head (the armed timer with the least (target, seq)) is found
// by a scan. Only the head owns an engine event, so a rate change re-arms
// one event, and re-arming a timer allocates nothing.
package clock

import (
	"fmt"

	"gcs/internal/des"
	"gcs/internal/seam"
)

// HardwareClock is one node's drifting hardware clock. It is owned by a
// single des.Engine and is not safe for concurrent use. It implements
// seam.Clock; the harness keeps the concrete handle for rate drift
// (SetRate) and arena reuse (Reset).
type HardwareClock struct {
	en *des.Engine

	// Piecewise-linear state: H(t) = lastH + rate*(t-lastT) for t >= lastT.
	lastT des.Time
	lastH float64
	rate  float64

	// timers holds every timer created on this clock, armed or not. Their
	// targets are hardware readings, so a rate change moves only the real
	// time of the head, and headEv is re-armed to track it.
	timers  []*timer
	nextSeq uint64
	// headEv is the single engine event backing the head (zero when no
	// timer is armed).
	headEv des.EventRef
	// fire is the single engine callback backing all of this clock's
	// timers: it fires every due timer and re-arms.
	fire des.ArgHandler

	// maxRate/minRate observed, for drift validation in tests.
	minRateSeen, maxRateSeen float64
}

var _ seam.Clock = (*HardwareClock)(nil)

// New returns a hardware clock reading 0 at the engine's current time,
// running at the given initial rate.
func New(en *des.Engine, initialRate float64) *HardwareClock {
	if initialRate <= 0 {
		panic("clock: nonpositive rate")
	}
	c := &HardwareClock{
		en:          en,
		lastT:       en.Now(),
		rate:        initialRate,
		minRateSeen: initialRate,
		maxRateSeen: initialRate,
	}
	c.fire = func(uint64) { c.drainDue() }
	return c
}

// Reset returns the clock to a fresh reading of 0 at the engine's
// current time, running at initialRate, with every timer unarmed. It is
// the arena-reuse counterpart of New: the timers stay registered, so
// re-arming them after a reset allocates nothing. Call it after the
// owning engine has been Reset — the head event is dropped without being
// cancelled, since the engine has already recycled it.
func (c *HardwareClock) Reset(initialRate float64) {
	if initialRate <= 0 {
		panic("clock: nonpositive rate")
	}
	for _, tm := range c.timers {
		tm.armed = false
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
// targets are hardware readings, so which timer is the head is
// unaffected; only the single engine event backing it is re-armed to
// its new real fire time. Rates must be positive; the paper's model
// requires rates in [1-rho, 1+rho] with rho < 1, which drivers enforce.
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
	if h := c.head(); h != nil {
		c.armHead(h)
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

// NewTimer returns an unarmed subjective timer on this clock (the
// paper's set_timer(dt, id) is its Reset, cancel(id) its Stop). The
// timer is long-lived: one allocation here, none per arming.
func (c *HardwareClock) NewTimer(label string, fn func()) seam.Timer {
	tm := &timer{c: c, label: label, fn: fn}
	c.timers = append(c.timers, tm)
	return tm
}

// timer is one subjective timer: armed, it fires when its clock reads
// targetH, surviving any number of rate changes in between.
type timer struct {
	c       *HardwareClock
	targetH float64
	seq     uint64 // arming order, tie-break for equal targets
	label   string
	fn      func()
	armed   bool
}

// head returns the armed timer with the least (targetH, seq), or nil.
func (c *HardwareClock) head() *timer {
	var h *timer
	for _, tm := range c.timers {
		if tm.armed && (h == nil || tm.targetH < h.targetH || tm.targetH == h.targetH && tm.seq < h.seq) {
			h = tm
		}
	}
	return h
}

// armHead (re)registers the single engine event to h's fire time.
func (c *HardwareClock) armHead(h *timer) {
	c.en.Cancel(c.headEv)
	c.headEv = c.en.ScheduleArg(c.timeWhen(h.targetH), h.label, c.fire, 0)
}

// drainDue runs when the head event fires: it fires every timer that is
// due at the current time (equal targets fire in arming order, and a
// target reached exactly now by floating-point luck fires now rather
// than being re-armed for the same instant), then re-arms the event for
// the new head. Callbacks may reset or stop timers freely — the loop
// re-reads the head each iteration.
func (c *HardwareClock) drainDue() {
	c.headEv = des.EventRef{} // the firing event consumed itself
	now := c.en.Now()
	for tm := c.head(); tm != nil; tm = c.head() {
		if c.timeWhen(tm.targetH) > now {
			// Callbacks may have armed the event themselves (a Reset or
			// Stop that moved the head); only re-arm if none did.
			if !c.headEv.Pending() {
				c.armHead(tm)
			}
			return
		}
		tm.armed = false
		tm.fn()
	}
}

// Reset (re)arms the timer to fire when the clock has advanced by dH
// from its current reading. dH must be nonnegative.
func (tm *timer) Reset(dH float64) {
	if dH < 0 {
		panic("clock: negative timer duration")
	}
	c := tm.c
	wasHead := tm.armed && c.head() == tm
	tm.targetH = c.Now() + dH
	tm.seq = c.nextSeq
	c.nextSeq++
	tm.armed = true
	if h := c.head(); wasHead || h == tm {
		c.armHead(h)
	}
}

// Stop disarms the timer; stopping an unarmed timer is a no-op.
func (tm *timer) Stop() {
	c := tm.c
	wasHead := tm.armed && c.head() == tm
	tm.armed = false
	if !wasHead {
		return
	}
	if h := c.head(); h != nil {
		c.armHead(h)
	} else {
		c.en.Cancel(c.headEv)
		c.headEv = des.EventRef{}
	}
}

// Pending reports whether the timer is armed.
func (tm *timer) Pending() bool { return tm.armed }
