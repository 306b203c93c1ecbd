package clock

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"gcs/internal/des"
	"gcs/internal/seam"
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

// arm returns a new timer on c armed for dH.
func arm(c *HardwareClock, dH float64, label string, fn func()) seam.Timer {
	tm := c.NewTimer(label, fn)
	tm.Reset(dH)
	return tm
}

func TestTimerConstantRate(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 2.0) // subjective time runs twice as fast
	var firedAt des.Time = -1
	arm(c, 10, "tick", func() { firedAt = en.Now() })
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
	arm(c, 10, "tick", func() { firedAt = en.Now() })
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
	arm(c, 10, "tick", func() { firedAt = en.Now() })
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
		en.Schedule(en.Now()+1, "flip", flip)
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

// TestStopTimer pins the paper's cancel(id): a stopped timer never
// fires and leaves no engine event, and stopping it again, or stopping
// a timer never armed, is a no-op.
func TestStopTimer(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	fired := false
	tm := arm(c, 5, "tick", func() { fired = true })
	tm.Stop()
	if tm.Pending() || en.Pending() != 0 {
		t.Fatalf("after Stop: timer pending %v, engine events %d; want false, 0", tm.Pending(), en.Pending())
	}
	en.Run(10)
	if fired {
		t.Fatal("stopped timer fired")
	}
	tm.Stop() // no-op
	c.NewTimer("idle", func() {}).Stop()
}

func TestTimerDoneFlag(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	tm := arm(c, 5, "tick", func() {})
	if !tm.Pending() {
		t.Fatal("timer marked done before firing")
	}
	en.Run(10)
	if tm.Pending() {
		t.Fatal("timer not marked done after firing")
	}
	tm.Stop() // no-op after fire
}

// TestStopAfterClockResetIsNoOp: a clock Reset (after its engine's)
// disarms every timer. Stopping one afterwards must not cancel the
// recycled engine event now backing another timer, and the stopped
// timer, re-armed, fires.
func TestStopAfterClockResetIsNoOp(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	oldFired, newFired := 0, false
	old := arm(c, 1, "old", func() { oldFired++ })
	en.Reset()
	c.Reset(1)
	if old.Pending() {
		t.Fatal("timer still armed after the clock's Reset")
	}
	arm(c, 1, "new", func() { newFired = true })
	old.Stop() // must be a no-op
	if en.Pending() != 1 {
		t.Fatalf("engine holds %d events after a stale Stop, want 1", en.Pending())
	}
	old.Reset(2)
	en.Run(5)
	if !newFired || oldFired != 1 {
		t.Fatalf("new fired %v, re-armed old fired %d times; want true, 1", newFired, oldFired)
	}
}

func TestTimerZeroDuration(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	en.Schedule(3, "setup", func() {
		arm(c, 0, "imm", func() {
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
	tm := c.NewTimer("bad", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("negative timer did not panic")
		}
	}()
	tm.Reset(-1)
}

// TestTargetH: a timer armed for dH at reading H fires when the clock
// reads H+dH, across a rate change in between.
func TestTargetH(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1.0)
	var got float64 = -1
	en.Schedule(2, "set", func() { arm(c, 7, "x", func() { got = c.Now() }) })
	en.Schedule(4, "speedup", func() { c.SetRate(1.5) })
	en.Run(20)
	if math.Abs(got-9) > 1e-12 {
		t.Fatalf("reading at fire = %v, want 9", got)
	}
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
		arm(c, dH, "t", func() { readingAtFire = c.Now() })
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
// many subjective timers a clock holds, only the head owns an engine
// event, and a rate change re-arms that single event instead of
// rescheduling every timer.
func TestBatchedTimersOneEngineEvent(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	for i := 0; i < 100; i++ {
		arm(c, float64(i+1), "tm", func() {})
	}
	if armed := armedCount(c); armed != 100 {
		t.Fatalf("armed timers = %d, want 100", armed)
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

func armedCount(c *HardwareClock) int {
	n := 0
	for i := range c.inline {
		if c.inline[i].Pending() {
			n++
		}
	}
	if c.spill != nil {
		for _, tm := range *c.spill {
			if tm.Pending() {
				n++
			}
		}
	}
	return n
}

// TestTimerLayout pins a timer at 40 bytes, its label an id interned on
// the clock's engine: the engine traces each timer's firing under the
// name the timer was made with.
func TestTimerLayout(t *testing.T) {
	if got := unsafe.Sizeof(timer{}); got > 40 {
		t.Fatalf("a timer is %d bytes, want at most 40", got)
	}
	en := des.NewEngine()
	var traced []string
	en.SetTraceHook(func(_ des.Time, label string) { traced = append(traced, label) })
	c := New(en, 1)
	a, b := c.NewTimer("gcs.beacon", func() {}), c.NewTimer("gcs.catchup", func() {})
	a.Reset(1)
	b.Reset(2)
	en.Run(3)
	if want := []string{"gcs.beacon", "gcs.catchup"}; !slices.Equal(traced, want) {
		t.Fatalf("traced %q, want %q", traced, want)
	}
}

// TestInlineAndSpilledTimers runs five timers on one clock: the first two
// live inside the clock, the other three spill. Armed across both, they
// fire in (target, seq) order through a SetRate and a Stop of the head,
// and re-arming or stopping any of them allocates nothing.
func TestInlineAndSpilledTimers(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	type firing struct {
		i int
		t float64
	}
	var got []firing
	timers := make([]seam.Timer, 5)
	for i := range timers {
		timers[i] = c.NewTimer("tm", func() { got = append(got, firing{i, en.Now()}) })
	}
	if c.spill == nil || len(*c.spill) != 3 || timers[0] != &c.inline[0] || timers[1] != &c.inline[1] {
		t.Fatal("want timers 0 and 1 inline and 2-4 spilled")
	}
	// Targets interleave inline and spilled timers; 3 and 1 tie at 2 and
	// fire in arming order.
	for _, a := range []struct {
		i  int
		dH float64
	}{{4, 1}, {3, 2}, {1, 2}, {0, 3}, {2, 4}} {
		timers[a.i].Reset(a.dH)
	}
	timers[4].Stop() // the head: the firing moves to timer 3
	en.Run(1.5)
	c.SetRate(2) // H = 1.5 at t = 1.5; the remaining targets come twice as fast
	en.Run(10)
	if want := []firing{{3, 1.75}, {1, 1.75}, {0, 2.25}, {2, 2.75}}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	if armedCount(c) != 0 || en.Pending() != 0 {
		t.Fatalf("%d timers armed, %d engine events after the drain, want none", armedCount(c), en.Pending())
	}
	for i, tm := range timers {
		if a := testing.AllocsPerRun(20, func() { tm.Reset(0.5 + float64(i)); tm.Stop() }); a != 0 {
			t.Errorf("timer %d: Reset and Stop allocated %v objects", i, a)
		}
	}
}

// TestBatchedTimersFireOrder pins that equal-target timers fire in
// arming order and distinct targets in target order, through the
// single batched engine event.
func TestBatchedTimersFireOrder(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	var got []int
	rec := func(id int) func() { return func() { got = append(got, id) } }
	arm(c, 2, "b", rec(1))
	arm(c, 1, "a", rec(0))
	arm(c, 2, "b2", rec(2))
	arm(c, 3, "c", rec(3))
	en.Run(10)
	if want := []int{0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// TestBatchedTimerCancelHeadReArms pins that stopping the head timer
// re-arms the engine event for the next timer, and stopping the last
// timer clears it.
func TestBatchedTimerCancelHeadReArms(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	fired := false
	head := arm(c, 1, "head", func() { t.Error("stopped head fired") })
	arm(c, 2, "next", func() { fired = true })
	head.Stop()
	if en.Pending() != 1 {
		t.Fatalf("engine holds %d events after head stop, want 1", en.Pending())
	}
	en.Run(10)
	if !fired {
		t.Fatal("next timer did not fire after head stop")
	}
	if armed := armedCount(c); armed != 0 {
		t.Fatalf("armed timers = %d, want 0", armed)
	}
	last := arm(c, 1, "last", func() {})
	last.Stop()
	if en.Pending() != 0 {
		t.Fatalf("engine holds %d events after last stop, want 0", en.Pending())
	}
}

// TestBatchedTimerSetDuringDrain pins that a callback arming a timer
// while the batched event drains gets a correctly armed event.
func TestBatchedTimerSetDuringDrain(t *testing.T) {
	en := des.NewEngine()
	c := New(en, 1)
	var at float64 = -1
	inner := c.NewTimer("inner", func() { at = c.Now() })
	arm(c, 1, "outer", func() { inner.Reset(0.5) })
	en.Run(10)
	if math.Abs(at-1.5) > 1e-12 {
		t.Fatalf("inner timer fired at H=%v, want 1.5", at)
	}
}

// sloppyBase is a test Base over an engine that takes the liberties a
// base of resolution res may take, as a wall-clock one does: it fires up
// to 0.9·res early, and one time in three a re-arm or Disarm leaves the
// replaced firing to fire anyway, stale. fire is its firing callback,
// with the firing's arming id as argument.
type sloppyBase struct {
	en       *des.Engine
	r        *des.Rand
	res      float64
	ref      des.EventRef
	at       float64 // the current firing's requested time
	cur, ids uint64  // the current firing's id (0: none), the last id issued
	ops      int     // Arm and Disarm calls
	fire     des.ArgHandler
}

func (b *sloppyBase) Now() float64 { return b.en.Now() }

func (b *sloppyBase) Arm(at float64, lbl des.Label) {
	b.retire()
	b.ids++
	b.cur, b.at = b.ids, at
	b.ref = b.en.ScheduleLabel(max(b.en.Now(), at-0.9*b.res*b.r.Float64()), lbl, b.fire, b.cur)
}

func (b *sloppyBase) Disarm() { b.retire() }

// retire cancels the current firing, or one time in three leaves it to
// fire stale.
func (b *sloppyBase) retire() {
	b.ops++
	if b.r.Intn(3) != 0 {
		b.en.Cancel(b.ref)
	}
	b.cur = 0
}

// TestPropertyTimerScript runs seeded random scripts of Reset, Stop,
// SetRate and advance over 1-4 timers on one clock against a model: the
// armed (target, seq) pair of each timer. Every firing must be of an
// armed timer (a stopped one never fires) holding the model's least
// pair, at a clock reading at most res·rate before its target (within
// 1e-9). Durations come from a short list, so timers armed at one
// instant often tie on target and zero durations are due at once;
// callbacks sometimes re-arm their own timer, as the gcs beacon does.
//
// The scripts run on the engine base, where between steps the engine
// holds one event exactly when some timer is armed, and on a sloppyBase
// with res = 0.05, where an armed timer always has a current firing
// coming and every firing keeps the resolution contract: it fires each
// timer due within 0.99·res, and when none is due within 1.01·res it
// does nothing at all — no timer fires and the base is neither re-armed
// nor disarmed.
func TestPropertyTimerScript(t *testing.T) {
	type pair struct {
		target float64
		seq    uint64
		armed  bool
	}
	durations := []float64{0, 0.5, 1, 2.5}
	for _, res := range []float64{0, 0.05} {
		for seed := uint64(1); seed <= 300; seed++ {
			r := des.NewRand(seed)
			en := des.NewEngine()
			rate := r.Range(0.5, 2)
			var c *HardwareClock
			var sloppy *sloppyBase
			if res == 0 {
				c = New(en, rate)
			} else {
				sloppy = &sloppyBase{en: en, r: r, res: res}
				c = NewOn(sloppy, res, rate)
			}
			model := make([]pair, 1+r.Intn(4))
			timers := make([]seam.Timer, len(model))
			var seq uint64
			reset := func(i int) {
				dH := durations[r.Intn(len(durations))]
				timers[i].Reset(dH)
				model[i] = pair{c.Now() + dH, seq, true}
				seq++
			}
			rearms, fired := 0, 0
			for i := range timers {
				timers[i] = c.NewTimer("t", func() {
					for j, p := range model {
						if p.armed && (p.target < model[i].target || p.target == model[i].target && p.seq < model[i].seq) {
							t.Fatalf("res %v seed %d: timer %d fired before timer %d (%+v before %+v)", res, seed, i, j, model[i], p)
						}
					}
					if !model[i].armed {
						t.Fatalf("res %v seed %d: unarmed timer %d fired", res, seed, i)
					}
					if got := c.Now(); got < model[i].target-res*rate-1e-9 || got > model[i].target+1e-9 {
						t.Fatalf("res %v seed %d: timer %d fired at reading %v, target %v", res, seed, i, got, model[i].target)
					}
					model[i].armed = false
					fired++
					if rearms < 20 && r.Intn(3) == 0 {
						rearms++
						reset(i)
					}
				})
			}
			if sloppy != nil {
				sloppy.fire = func(id uint64) {
					stale := id != sloppy.cur
					if !stale {
						sloppy.cur = 0
					}
					due, idle := false, true
					for _, p := range model {
						if gap := p.target - c.Now(); p.armed && gap <= 1.01*res*rate {
							idle = false
							due = due || gap <= 0.99*res*rate
						}
					}
					quiet := stale && idle && (sloppy.cur == 0 || sloppy.at > en.Now()+1.01*res)
					ops, n := sloppy.ops, fired
					c.Fire()
					if due && fired == n {
						t.Fatalf("res %v seed %d: a firing at %v left a timer due within res unfired", res, seed, en.Now())
					}
					if quiet && (fired != n || sloppy.ops != ops) {
						t.Fatalf("res %v seed %d: a stale firing at %v with no timer due did %d base calls and fired %d timers", res, seed, en.Now(), sloppy.ops-ops, fired-n)
					}
				}
			}
			for step := 0; step < 80; step++ {
				switch r.Intn(4) {
				case 0:
					reset(r.Intn(len(timers)))
				case 1:
					i := r.Intn(len(timers))
					timers[i].Stop()
					model[i].armed = false
				case 2:
					rate = r.Range(0.5, 2)
					c.SetRate(rate)
				case 3:
					en.Run(en.Now() + r.Range(0, 2))
				}
				anyArmed := false
				for i, p := range model {
					if timers[i].Pending() != p.armed {
						t.Fatalf("res %v seed %d step %d: timer %d Pending() = %v, model %v", res, seed, step, i, timers[i].Pending(), p.armed)
					}
					anyArmed = anyArmed || p.armed
				}
				if sloppy != nil {
					if anyArmed && sloppy.cur == 0 {
						t.Fatalf("res %v seed %d step %d: timers armed but no current firing", res, seed, step)
					}
					continue
				}
				want := 0
				if anyArmed {
					want = 1
				}
				if en.Pending() != want {
					t.Fatalf("res %v seed %d step %d: engine holds %d events, want %d", res, seed, step, en.Pending(), want)
				}
			}
		}
	}
}
