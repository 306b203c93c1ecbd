package rt

import (
	"math"
	"time"

	"gcs/internal/seam"
)

// durOf converts simulated/hardware seconds to a wall duration, rounding
// up to a whole nanosecond. Rounding up matters twice: a delay never
// becomes zero (the transport law is (0, MaxDelay]), and a re-armed
// subjective timer always advances wall time by at least 1ns per firing,
// so the fire-early-then-re-arm loop in driftTimer.check cannot spin at
// one instant under synctest's fake clock.
func durOf(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	d := time.Duration(math.Ceil(sec * float64(time.Second)))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// hwEps is the hardware-reading tolerance for timer firing: one
// nanosecond of wall time at any in-band rate. A timer whose target is
// within hwEps of the current reading fires now instead of re-arming
// for a sub-nanosecond remainder (which wall clocks cannot express).
const hwEps = 2e-9

// DriftClock is one node's hardware clock in the real-time runtime: a
// piecewise-linear function of the wall clock,
//
//	H(wall) = lastH + rate * (wall - lastW),
//
// rebased at every rate change, exactly like the DES HardwareClock is a
// piecewise-linear function of engine time. It implements seam.Clock,
// so the gcs node reads it like any other hardware clock; the runtime
// keeps the concrete handle for the drift driver (SetRate).
//
// All methods require the owning host's lock (they run in the node's
// event context or in the sampler, both of which hold it); the struct
// has no locking of its own.
type DriftClock struct {
	h     *host
	lastW time.Time
	lastH float64
	rate  float64
	// minRate/maxRate aggregate every rate this clock ran at, for the
	// report's drift-band validation.
	minRate, maxRate float64
	// timers holds every timer ever created on this clock (the gcs node
	// makes exactly two) so a rate change can re-arm pending firings:
	// subjective targets are fixed in hardware time, and the wall time
	// they correspond to moves when the rate does.
	timers []*driftTimer
}

func newDriftClock(h *host, start time.Time) *DriftClock {
	return &DriftClock{h: h, lastW: start, rate: 1, minRate: 1, maxRate: 1}
}

// Now returns the clock's current hardware reading.
func (c *DriftClock) Now() float64 {
	//gcslint:allow nondeterminism — rt IS the wall-clock harness; this anchor is its by-design time source
	return c.lastH + c.rate*time.Since(c.lastW).Seconds()
}

// RateBoundsSeen returns the smallest and largest rates the clock has
// run at, for validating the [1-rho, 1+rho] drift bound.
func (c *DriftClock) RateBoundsSeen() (min, max float64) { return c.minRate, c.maxRate }

// SetRate rebases the clock at the current instant and changes its
// rate; armed timers are re-armed so their hardware-time targets keep
// the right wall-time translation.
func (c *DriftClock) SetRate(rate float64) {
	if rate <= 0 || math.IsNaN(rate) {
		panic("rt: hardware rate must be positive")
	}
	now := time.Now() //gcslint:allow nondeterminism — re-anchors the piecewise-linear segment at the rate change
	c.lastH += c.rate * now.Sub(c.lastW).Seconds()
	c.lastW = now
	c.rate = rate
	if rate < c.minRate {
		c.minRate = rate
	}
	if rate > c.maxRate {
		c.maxRate = rate
	}
	for _, tm := range c.timers {
		if tm.armed {
			tm.rearm()
		}
	}
}

// NewTimer implements seam.Clock. The timer delivers its firings into
// the owning host's event queue, so fn always runs in the node's
// serialized execution context.
func (c *DriftClock) NewTimer(label string, fn func()) seam.Timer {
	tm := &driftTimer{c: c, label: label, fn: fn}
	c.timers = append(c.timers, tm)
	return tm
}

// driftTimer is a resettable subjective timer over a DriftClock, backed
// by one reusable time.Timer. The wall deadline is the current best
// translation of the hardware target; because the rate can change while
// armed, the firing path re-checks the hardware reading and re-arms for
// the remainder if it ran early (SetRate also re-arms eagerly, so this
// is a second line of defense against rounding).
//
// armed/targetH are guarded by the host lock like everything else; the
// AfterFunc callback itself only forwards into the host's event queue
// and reads no mutable state.
type driftTimer struct {
	c       *DriftClock
	label   string
	fn      func()
	targetH float64
	armed   bool
	t       *time.Timer
}

func (tm *driftTimer) Reset(dH float64) {
	if dH < 0 {
		panic("rt: negative timer offset")
	}
	tm.targetH = tm.c.Now() + dH
	tm.armed = true
	tm.rearm()
}

func (tm *driftTimer) Stop() {
	tm.armed = false
	if tm.t != nil {
		tm.t.Stop()
	}
}

func (tm *driftTimer) Pending() bool { return tm.armed }

// rearm (re)schedules the wall-time firing for the current hardware
// target at the current rate. Requires the host lock.
func (tm *driftTimer) rearm() {
	d := durOf((tm.targetH - tm.c.Now()) / tm.c.rate)
	if tm.t == nil {
		h := tm.c.h
		tm.t = time.AfterFunc(d, func() { h.enqueue(tm.check) })
	} else {
		tm.t.Stop()
		tm.t.Reset(d)
	}
}

// check runs in the node's event context: fire if the hardware target
// has been reached (within hwEps), otherwise re-arm for the remainder.
func (tm *driftTimer) check() {
	if !tm.armed {
		return // Stop raced the in-flight firing; stale, ignore
	}
	if tm.c.Now() >= tm.targetH-hwEps {
		tm.armed = false
		tm.fn()
		return
	}
	tm.rearm()
}
