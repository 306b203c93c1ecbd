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
// flag in the clock's timers slice. A gcs node makes two, so the head (the
// armed timer with the least (target, seq)) is found by a scan. Only the
// head owns a firing in the clock's Base, so a rate change re-arms one
// firing, and re-arming a timer allocates nothing.
//
// The Base is everything a clock needs from its harness: a real-time
// source and one re-armable firing. The DES harnesses use New, whose base
// is the engine (engine time, one engine event); the real-time runtime
// supplies a wall-clock base through NewOn.
package clock

import (
	"fmt"
	"math"

	"gcs/internal/des"
	"gcs/internal/seam"
)

// Base is a clock's environment: a time source plus one re-armable
// firing. When the firing happens the base calls the clock's Fire, in the
// owning node's execution context.
type Base interface {
	// Now returns the current real time.
	Now() float64
	// Arm schedules the firing for real time at (never before Now),
	// replacing any pending one; label tags it for tracing.
	Arm(at float64, label string)
	// Disarm cancels the pending firing, if any.
	Disarm()
}

// HardwareClock is one node's drifting hardware clock. It is not safe for
// concurrent use: every method runs in its node's execution context. It
// implements seam.Clock; the harness keeps the concrete handle for rate
// drift (SetRate) and arena reuse (Reset).
type HardwareClock struct {
	base Base
	// res is the base's resolution in real time: a timer due within res of
	// now fires now. It is 0 for the engine, whose firings are exact.
	res float64

	// Piecewise-linear state: H(t) = lastH + rate*(t-lastT) for t >= lastT.
	lastT float64
	lastH float64
	rate  float64

	// timers holds every timer created on this clock, armed or not. Their
	// targets are hardware readings, so a rate change moves only the real
	// time of the head, and the base's firing is re-armed to track it.
	timers  []*timer
	nextSeq uint64
	// headAt is the real time the base's firing is armed for, +Inf when
	// it is not armed.
	headAt float64

	// eng is the engine base of a clock made by New; base points at it.
	eng engineBase

	// maxRate/minRate observed, for drift validation in tests.
	minRateSeen, maxRateSeen float64
}

var _ seam.Clock = (*HardwareClock)(nil)

// engineBase is the DES Base: engine time, and one engine event whose
// single callback is the clock's Fire.
type engineBase struct {
	en   *des.Engine
	ev   des.EventRef
	fire des.ArgHandler
}

func (b *engineBase) Now() float64 { return b.en.Now() }

// Arm re-registers the clock's one engine event.
//
//gcslint:zeroalloc
func (b *engineBase) Arm(at float64, label string) {
	b.en.Cancel(b.ev)
	b.ev = b.en.ScheduleArg(at, label, b.fire, 0)
}

func (b *engineBase) Disarm() {
	b.en.Cancel(b.ev)
	b.ev = des.EventRef{}
}

// New returns a hardware clock on the engine, reading 0 at the engine's
// current time and running at the given initial rate.
func New(en *des.Engine, initialRate float64) *HardwareClock {
	c := new(HardwareClock)
	c.Init(en, initialRate)
	return c
}

// Init sets c up in place exactly as New would, overwriting whatever it
// held; a harness that allocates its clocks as one slab calls it on each
// element.
func (c *HardwareClock) Init(en *des.Engine, initialRate float64) {
	*c = HardwareClock{}
	c.eng = engineBase{en: en, fire: func(uint64) { c.Fire() }}
	c.base = &c.eng
	c.Reset(initialRate)
}

// NewOn returns a hardware clock on base b with resolution res, reading 0
// at b's current time and running at the given initial rate.
func NewOn(b Base, res, initialRate float64) *HardwareClock {
	c := &HardwareClock{base: b, res: res}
	c.Reset(initialRate)
	return c
}

// Reset returns the clock to a fresh reading of 0 at the base's current
// time, running at initialRate, with every timer unarmed. It is the
// arena-reuse counterpart of New: the timers stay registered, so
// re-arming them after a reset allocates nothing. Call it after the
// owning engine has been Reset; disarming then cancels nothing, since the
// engine has already recycled the head event.
func (c *HardwareClock) Reset(initialRate float64) {
	checkRate(initialRate)
	for _, tm := range c.timers {
		tm.armed = false
	}
	c.disarm()
	c.nextSeq = 0
	c.lastT = c.base.Now()
	c.lastH = 0
	c.rate = initialRate
	c.minRateSeen = initialRate
	c.maxRateSeen = initialRate
}

func checkRate(rate float64) {
	if !(rate > 0) {
		panic("clock: nonpositive rate")
	}
}

// Now returns the hardware clock reading at the base's current time.
func (c *HardwareClock) Now() float64 {
	return c.ReadAt(c.base.Now())
}

// ReadAt returns H(t). t must not precede the last rate breakpoint; the
// harnesses only ever read clocks at or after the current time.
func (c *HardwareClock) ReadAt(t float64) float64 {
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

// SetRate changes the clock rate as of the base's current time. Timer
// targets are hardware readings, so which timer is the head is
// unaffected; only the base's firing is re-armed to its new real fire
// time. Rates must be positive; the paper's model requires rates in
// [1-rho, 1+rho] with rho < 1, which drivers enforce.
func (c *HardwareClock) SetRate(rate float64) {
	checkRate(rate)
	now := c.base.Now()
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
		c.armHead(now, h)
	}
}

// timeWhen returns the real time at which the clock will read hTarget,
// assuming the current rate persists.
func (c *HardwareClock) timeWhen(now, hTarget float64) float64 {
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

// armHead (re)arms the base's firing for h's fire time.
func (c *HardwareClock) armHead(now float64, h *timer) {
	c.headAt = c.timeWhen(now, h.targetH)
	c.base.Arm(c.headAt, h.label)
}

func (c *HardwareClock) disarm() {
	c.headAt = math.Inf(1)
	c.base.Disarm()
}

// Fire is the base's firing. It fires every timer due within the base's
// resolution of the current time (equal targets fire in arming order, and
// a target reached exactly now by floating-point luck fires now rather
// than being re-armed for the same instant), then re-arms the base for
// the new head. Callbacks may reset or stop timers freely — the loop
// re-reads the head each iteration. A firing that comes more than res
// before headAt is stale (a Stop or re-arm raced it) and does nothing.
func (c *HardwareClock) Fire() {
	now := c.base.Now()
	if now+c.res < c.headAt {
		return
	}
	c.headAt = math.Inf(1) // the firing consumed itself
	for tm := c.head(); tm != nil; tm = c.head() {
		if c.timeWhen(now, tm.targetH) > now+c.res {
			// Callbacks may have armed the base themselves (a Reset or
			// Stop that moved the head); only re-arm if none did.
			if math.IsInf(c.headAt, 1) {
				c.armHead(now, tm)
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
	now := c.base.Now()
	tm.targetH = c.ReadAt(now) + dH
	tm.seq = c.nextSeq
	c.nextSeq++
	tm.armed = true
	if h := c.head(); wasHead || h == tm {
		c.armHead(now, h)
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
		c.armHead(c.base.Now(), h)
	} else {
		c.disarm()
	}
}

// Pending reports whether the timer is armed.
func (tm *timer) Pending() bool { return tm.armed }
