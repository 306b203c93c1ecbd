package clock

import (
	"math"
	"testing"
	"testing/quick"

	"gcs/internal/des"
)

func TestReadConstantRate(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(10, "check", func() {
		if got := c.Now(); got != 10 {
			t.Errorf("H(10) = %v, want 10", got)
		}
	})
	en.Run(10)
	if got := c.Now(); got != 10 {
		t.Fatalf("H(10) after run = %v, want 10", got)
	}
}

func TestReadFastSlow(t *testing.T) {
	en := des.NewEngine()
	fast := New(en, 1.1)
	slow := New(en, 0.9)
	en.Run(100)
	if got := fast.Now(); math.Abs(got-110) > 1e-9 {
		t.Fatalf("fast H(100) = %v, want 110", got)
	}
	if got := slow.Now(); math.Abs(got-90) > 1e-9 {
		t.Fatalf("slow H(100) = %v, want 90", got)
	}
}

func TestSetRateBreakpoint(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(10, "speedup", func() { c.SetRate(2.0) })
	en.Run(15)
	// H = 10*1 + 5*2 = 20.
	if got := c.Now(); math.Abs(got-20) > 1e-9 {
		t.Fatalf("H(15) = %v, want 20", got)
	}
}

func TestReadAtPastPanics(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(5, "bp", func() { c.SetRate(1.5) })
	en.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("ReadAt before breakpoint did not panic")
		}
	}()
	c.ReadAt(3)
}

func TestNonpositiveRatePanics(t *testing.T) {
	en := des.NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("New with rate 0 did not panic")
		}
	}()
	New(en, 0)
}

func TestTimerConstantRate(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 2.0) // subjective time runs twice as fast
	var firedAt des.Time = -1
	c.SetTimer(10, "tick", func() { firedAt = en.Now() })
	en.Run(100)
	// dH=10 at rate 2 -> 5 real seconds.
	if math.Abs(firedAt-5) > 1e-9 {
		t.Fatalf("timer fired at %v, want 5", firedAt)
	}
}

func TestTimerSurvivesRateChange(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	var firedAt des.Time = -1
	c.SetTimer(10, "tick", func() { firedAt = en.Now() })
	// At t=4 (H=4), slow down to 0.5: remaining dH=6 takes 12 real secs.
	en.Schedule(4, "slow", func() { c.SetRate(0.5) })
	en.Run(100)
	if math.Abs(firedAt-16) > 1e-9 {
		t.Fatalf("timer fired at %v, want 16", firedAt)
	}
}

func TestTimerSurvivesManyRateChanges(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	var firedAt des.Time = -1
	c.SetTimer(10, "tick", func() { firedAt = en.Now() })
	// Alternate 0.5 / 2.0 every second; average progress per 2s = 2.5 H.
	rate := 0.5
	var flip func()
	flip = func() {
		c.SetRate(rate)
		if rate == 0.5 {
			rate = 2.0
		} else {
			rate = 0.5
		}
		en.ScheduleAfter(1, "flip", flip)
	}
	en.Schedule(1, "flip", flip)
	en.Run(100)
	// H(t): 1 at t=1, then rates 0.5,2 alternating each second:
	// H(2)=1.5, H(3)=3.5, H(4)=4, H(5)=6, H(6)=6.5, H(7)=8.5, H(8)=9,
	// then rate 2 reaches H=10 at t=8.5.
	if math.Abs(firedAt-8.5) > 1e-9 {
		t.Fatalf("timer fired at %v, want 8.5", firedAt)
	}
}

func TestCancelTimer(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	fired := false
	tm := c.SetTimer(5, "tick", func() { fired = true })
	c.CancelTimer(tm)
	en.Run(10)
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if len(c.active) != 0 {
		t.Fatalf("pending timers = %d, want 0", len(c.active))
	}
	c.CancelTimer(tm) // no-op
	c.CancelTimer(TimerRef{})
}

func TestTimerDoneFlag(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	tm := c.SetTimer(5, "tick", func() {})
	if !tm.Pending() {
		t.Fatal("timer marked done before firing")
	}
	en.Run(10)
	if tm.Pending() {
		t.Fatal("timer not marked done after firing")
	}
	c.CancelTimer(tm) // no-op after fire
}

// A stale TimerRef must not cancel the recycled Timer now backing a new
// SetTimer — the clock-layer analogue of the event pool's generation
// guarantee.
func TestStaleTimerRefCannotCancelRecycledTimer(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	stale := c.SetTimer(1, "old", func() {})
	en.Run(2) // fires and recycles the timer
	fired := false
	c.SetTimer(1, "new", func() { fired = true })
	c.CancelTimer(stale) // must be a no-op
	en.Run(5)
	if !fired {
		t.Fatal("stale CancelTimer killed a recycled timer")
	}
}

func TestTimerZeroDuration(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(3, "setup", func() {
		c.SetTimer(0, "imm", func() {
			if en.Now() != 3 {
				t.Errorf("zero timer fired at %v, want 3", en.Now())
			}
		})
	})
	en.Run(10)
}

func TestNegativeTimerPanics(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative timer did not panic")
		}
	}()
	c.SetTimer(-1, "bad", func() {})
}

func TestTargetH(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(2, "set", func() {
		tm := c.SetTimer(7, "x", func() {})
		if got := tm.tm.targetH; math.Abs(got-9) > 1e-12 {
			t.Errorf("target reading = %v, want 9", got)
		}
	})
	en.Run(20)
}

// Property: for any sequence of rate changes within [1-rho, 1+rho], the
// clock's advance over any window respects the drift bound (paper §3.3):
// (1-rho)(t2-t1) <= H(t2)-H(t1) <= (1+rho)(t2-t1).
func TestPropertyDriftEnvelope(t *testing.T) {
	const rho = 0.1
	prop := func(seed uint64) bool {
		r := des.NewRand(seed)
		en := des.NewEngine()
		c := New(en, r.Range(1-rho, 1+rho))
		// Random rate changes at random times.
		tPrev := des.Time(0)
		hPrev := 0.0
		ok := true
		for i := 0; i < 40; i++ {
			dt := r.Range(0.01, 5)
			en.Run(en.Now() + dt)
			h := c.Now()
			lo := (1 - rho) * (en.Now() - tPrev)
			hi := (1 + rho) * (en.Now() - tPrev)
			dH := h - hPrev
			if dH < lo-1e-9 || dH > hi+1e-9 {
				ok = false
			}
			tPrev, hPrev = en.Now(), h
			c.SetRate(r.Range(1-rho, 1+rho))
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: a subjective timer set for dH fires exactly when the clock
// reads start+dH, across arbitrary legal rate changes.
func TestPropertyTimerExactness(t *testing.T) {
	prop := func(seed uint64) bool {
		r := des.NewRand(seed)
		en := des.NewEngine()
		c := New(en, r.Range(0.5, 2))
		dH := r.Range(1, 20)
		var readingAtFire float64 = -1
		c.SetTimer(dH, "t", func() { readingAtFire = c.Now() })
		// Random rate perturbations.
		for i := 0; i < 20; i++ {
			at := r.Range(0, 30)
			rate := r.Range(0.5, 2)
			if at >= en.Now() {
				en.Schedule(at, "perturb", func() { c.SetRate(rate) })
			}
		}
		en.Run(100)
		return readingAtFire >= 0 && math.Abs(readingAtFire-dH) < 1e-6
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchedTimersOneEngineEvent pins the batching contract: however
// many subjective timers a clock holds, only the heap head owns an
// engine event, and a rate change re-arms that single event instead of
// rescheduling every timer.
func TestBatchedTimersOneEngineEvent(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	for i := 0; i < 100; i++ {
		d := float64(i + 1)
		c.SetTimer(d, "tm", func() {})
	}
	if len(c.active) != 100 {
		t.Fatalf("pending timers = %d, want 100", len(c.active))
	}
	if en.Pending() != 1 {
		t.Fatalf("engine holds %d events for 100 timers, want 1", en.Pending())
	}
	// SetRate must stay O(1) engine ops: one cancel + one schedule.
	before := en.Executed()
	c.SetRate(2)
	if en.Pending() != 1 {
		t.Fatalf("engine holds %d events after SetRate, want 1", en.Pending())
	}
	if en.Executed() != before {
		t.Fatal("SetRate fired events")
	}
}

// TestBatchedTimersFireOrder pins that equal-target timers fire in
// insertion order and distinct targets in target order, through the
// single batched engine event.
func TestBatchedTimersFireOrder(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	c.SetTimer(2, "b", rec(1))
	c.SetTimer(1, "a", rec(0))
	c.SetTimer(2, "b2", rec(2))
	c.SetTimer(3, "c", rec(3))
	en.Run(10)
	want := []int{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// TestBatchedTimerCancelHeadReArms pins that cancelling the head timer
// re-arms the engine event for the next timer, and cancelling the last
// timer clears it.
func TestBatchedTimerCancelHeadReArms(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	fired := false
	head := c.SetTimer(1, "head", func() { t.Error("cancelled head fired") })
	c.SetTimer(2, "next", func() { fired = true })
	c.CancelTimer(head)
	if en.Pending() != 1 {
		t.Fatalf("engine holds %d events after head cancel, want 1", en.Pending())
	}
	en.Run(10)
	if !fired {
		t.Fatal("next timer did not fire after head cancel")
	}
	if len(c.active) != 0 {
		t.Fatalf("pending timers = %d, want 0", len(c.active))
	}
	last := c.SetTimer(1, "last", func() {})
	c.CancelTimer(last)
	if en.Pending() != 0 {
		t.Fatalf("engine holds %d events after last cancel, want 0", en.Pending())
	}
}

// TestBatchedTimerSetDuringDrain pins that a callback setting a new
// timer while the batched event drains gets a correctly armed event.
func TestBatchedTimerSetDuringDrain(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	var at float64 = -1
	c.SetTimer(1, "outer", func() {
		c.SetTimer(0.5, "inner", func() { at = c.Now() })
	})
	en.Run(10)
	if math.Abs(at-1.5) > 1e-12 {
		t.Fatalf("inner timer fired at H=%v, want 1.5", at)
	}
}
