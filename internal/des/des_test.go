package des

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// Pending reports whether the referenced event is still scheduled on en
// (not yet fired or cancelled): its slot still carries the ref's
// generation.
func (r EventRef) Pending(en *Engine) bool { return r.slot != 0 && en.pay[r.slot].gen == r.gen }

func TestScheduleAndRunOrder(t *testing.T) {
	en := NewEngine()
	var got []int
	en.Schedule(3, "c", func() { got = append(got, 3) })
	en.Schedule(1, "a", func() { got = append(got, 1) })
	en.Schedule(2, "b", func() { got = append(got, 2) })
	en.Run(10)
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	en := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		en.Schedule(5, "tie", func() { got = append(got, i) })
	}
	en.Run(10)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie order violated: %v", got)
		}
	}
}

func TestNowDuringHandler(t *testing.T) {
	en := NewEngine()
	var at Time
	en.Schedule(7.5, "x", func() { at = en.Now() })
	en.Run(100)
	if at != 7.5 {
		t.Fatalf("Now inside handler = %v, want 7.5", at)
	}
	if en.Now() != 100 {
		t.Fatalf("Now after Run = %v, want horizon 100", en.Now())
	}
}

func TestScheduleAfter(t *testing.T) {
	en := NewEngine()
	var fired []Time
	inner := func(arg uint64) { fired = append(fired, en.Now(), Time(arg)) }
	en.Schedule(2, "outer", func() { en.ScheduleAfterArg(3, "inner", inner, 7) })
	en.Run(10)
	if !slices.Equal(fired, []Time{5, 7}) {
		t.Fatalf("ScheduleAfterArg fired (at, arg) = %v, want [5 7]", fired)
	}
}

func TestCancel(t *testing.T) {
	en := NewEngine()
	fired := false
	e := en.Schedule(1, "x", func() { fired = true })
	en.Cancel(e)
	en.Run(10)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending(en) {
		t.Fatal("Pending() = true after Cancel")
	}
	// Cancelling again and cancelling the zero ref are no-ops.
	en.Cancel(e)
	en.Cancel(EventRef{})
}

func TestCancelFromHandler(t *testing.T) {
	en := NewEngine()
	fired := false
	var victim EventRef
	en.Schedule(1, "canceller", func() { en.Cancel(victim) })
	victim = en.Schedule(2, "victim", func() { fired = true })
	en.Run(10)
	if fired {
		t.Fatal("event cancelled from earlier handler still fired")
	}
}

func TestCancelAlreadyFired(t *testing.T) {
	en := NewEngine()
	n := 0
	e := en.Schedule(1, "x", func() { n++ })
	en.Run(10)
	en.Cancel(e) // must not panic or re-fire
	en.Run(20)
	if n != 1 {
		t.Fatalf("event fired %d times", n)
	}
}

func TestRunHorizonExcludesLaterEvents(t *testing.T) {
	en := NewEngine()
	var got []Time
	en.Schedule(1, "a", func() { got = append(got, 1) })
	en.Schedule(5, "b", func() { got = append(got, 5) })
	en.Run(3)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("events before horizon: %v", got)
	}
	if en.Now() != 3 {
		t.Fatalf("Now = %v, want 3", en.Now())
	}
	en.Run(10)
	if len(got) != 2 || got[1] != 5 {
		t.Fatalf("resumed run: %v", got)
	}
}

func TestEventAtHorizonFires(t *testing.T) {
	en := NewEngine()
	fired := false
	en.Schedule(3, "edge", func() { fired = true })
	en.Run(3)
	if !fired {
		t.Fatal("event exactly at horizon did not fire")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	en := NewEngine()
	en.Schedule(5, "x", func() {})
	en.Run(10)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	en.Schedule(1, "past", func() {})
}

func TestScheduleNaNPanics(t *testing.T) {
	en := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling at NaN did not panic")
		}
	}()
	en.Schedule(math.NaN(), "nan", func() {})
}

func TestRunUntilIdle(t *testing.T) {
	en := NewEngine()
	n := 0
	var ping func()
	ping = func() {
		n++
		if n < 100 {
			en.Schedule(en.Now()+1, "ping", ping)
		}
	}
	en.Schedule(0, "start", ping)
	en.RunUntilIdle(1000)
	if n != 100 {
		t.Fatalf("n = %d, want 100", n)
	}
	if en.Executed() != 100 {
		t.Fatalf("Executed = %d, want 100", en.Executed())
	}
}

func TestRunUntilIdleRunawayGuard(t *testing.T) {
	en := NewEngine()
	var loop func()
	loop = func() { en.Schedule(en.Now()+1, "loop", loop) }
	en.Schedule(0, "start", loop)
	defer func() {
		if recover() == nil {
			t.Fatal("runaway schedule did not panic")
		}
	}()
	en.RunUntilIdle(50)
}

func TestNextEventTime(t *testing.T) {
	en := NewEngine()
	if _, ok := en.NextEventTime(); ok {
		t.Fatal("NextEventTime on empty queue returned ok")
	}
	e := en.Schedule(4, "a", func() {})
	en.Schedule(6, "b", func() {})
	if tm, ok := en.NextEventTime(); !ok || tm != 4 {
		t.Fatalf("NextEventTime = %v,%v want 4,true", tm, ok)
	}
	en.Cancel(e)
	if tm, ok := en.NextEventTime(); !ok || tm != 6 {
		t.Fatalf("NextEventTime after cancel = %v,%v want 6,true", tm, ok)
	}
}

func TestPendingCount(t *testing.T) {
	en := NewEngine()
	en.Schedule(1, "a", func() {})
	en.Schedule(2, "b", func() {})
	if en.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", en.Pending())
	}
	en.Run(1)
	if en.Pending() != 1 {
		t.Fatalf("Pending after partial run = %d, want 1", en.Pending())
	}
}

func TestEventAccessors(t *testing.T) {
	en := NewEngine()
	e := en.Schedule(9, "mylabel", func() {})
	if !e.Pending(en) {
		t.Fatal("Pending = false before firing")
	}
	en.Run(10)
	if e.Pending(en) {
		t.Fatal("Pending = true after firing")
	}
}

func TestScheduleArg(t *testing.T) {
	en := NewEngine()
	var got []uint64
	collect := func(arg uint64) { got = append(got, arg) }
	en.ScheduleArg(2, "b", collect, 2)
	en.ScheduleArg(1, "a", collect, 1)
	en.ScheduleAfterArg(3, "c", collect, 3)
	en.Run(10)
	want := []uint64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

// A stale ref must never cancel the recycled event now occupying the same
// Event struct: this is the generation-counter guarantee of the pool.
func TestStaleRefCannotCancelRecycledEvent(t *testing.T) {
	en := NewEngine()
	stale := en.Schedule(1, "victim", func() {})
	en.Run(1) // fires and recycles the event
	if stale.Pending(en) {
		t.Fatal("ref still pending after fire")
	}
	if en.free == 0 {
		t.Fatal("fired event was not pooled")
	}
	fired := false
	fresh := en.Schedule(2, "fresh", func() { fired = true })
	en.Cancel(stale) // must be a no-op even though the Event was reused
	en.Run(3)
	if !fired {
		t.Fatal("stale Cancel killed a recycled event")
	}
	if fresh.Pending(en) {
		t.Fatal("fresh event still pending after firing")
	}

	// Same for a ref left stale by cancellation rather than firing.
	staleCancelled := en.Schedule(4, "cancelled", func() {})
	en.Cancel(staleCancelled)
	refired := false
	en.Schedule(5, "fresh2", func() { refired = true })
	en.Cancel(staleCancelled)
	en.Run(6)
	if !refired {
		t.Fatal("cancelled-stale ref killed a recycled event")
	}
}

// TestEventPoolStress interleaves schedules, fires, live cancels, and
// stale cancels, then checks that every event fired exactly once unless
// it was cancelled while pending — i.e. recycling never loses or
// duplicates a firing and stale handles never reach a recycled event.
func TestEventPoolStress(t *testing.T) {
	r := NewRand(20090613)
	en := NewEngine()
	var (
		refs      []EventRef
		fireCount []int
		cancelled []bool
	)
	scheduleOne := func() {
		idx := len(fireCount)
		fireCount = append(fireCount, 0)
		cancelled = append(cancelled, false)
		refs = append(refs, en.Schedule(en.Now()+r.Range(0, 5), "stress", func() {
			fireCount[idx]++
		}))
	}
	for i := 0; i < 3000; i++ {
		switch {
		case r.Float64() < 0.5:
			scheduleOne()
		case r.Float64() < 0.5 && len(refs) > 0:
			// Cancel a random ref: live or stale, the engine must sort it out.
			j := r.Intn(len(refs))
			wasPending := refs[j].Pending(en)
			en.Cancel(refs[j])
			if wasPending {
				cancelled[j] = true
			}
		default:
			en.Step()
		}
	}
	en.RunUntilIdle(100000)
	for i := range fireCount {
		want := 1
		if cancelled[i] {
			want = 0
		}
		if fireCount[i] != want {
			t.Fatalf("event %d fired %d times, want %d (cancelled=%v)",
				i, fireCount[i], want, cancelled[i])
		}
	}
	if en.free == 0 {
		t.Fatal("stress run never pooled an event")
	}
	if en.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", en.Pending())
	}
}

// Property: events always fire in nondecreasing time order, regardless of
// insertion order, including events scheduled from inside handlers.
func TestPropertyMonotoneFiring(t *testing.T) {
	prop := func(seed uint64) bool {
		r := NewRand(seed)
		en := NewEngine()
		last := -1.0
		ok := true
		var spawn func()
		spawn = func() {
			now := en.Now()
			if now < last {
				ok = false
			}
			last = now
			if r.Float64() < 0.3 && en.Executed() < 500 {
				en.Schedule(en.Now()+r.Range(0, 10), "spawn", spawn)
			}
		}
		for i := 0; i < 50; i++ {
			en.Schedule(r.Range(0, 100), "init", spawn)
		}
		en.RunUntilIdle(10000)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: an engine run with the same seed twice produces the identical
// event count and final time (determinism).
func TestPropertyDeterminism(t *testing.T) {
	runOnce := func(seed uint64) (uint64, Time) {
		r := NewRand(seed)
		en := NewEngine()
		var tick func()
		tick = func() {
			if r.Float64() < 0.9 && en.Now() < 1000 {
				en.Schedule(en.Now()+r.Exp(1.0), "tick", tick)
			}
		}
		for i := 0; i < 10; i++ {
			en.Schedule(r.Range(0, 5), "seed", tick)
		}
		en.Run(2000)
		return en.Executed(), en.Now()
	}
	prop := func(seed uint64) bool {
		n1, t1 := runOnce(seed)
		n2, t2 := runOnce(seed)
		return n1 == n2 && t1 == t2
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRandFork(t *testing.T) {
	r := NewRand(42)
	var a, b, a2 Rand
	r.ForkInto(1, &a)
	r.ForkInto(2, &b)
	NewRand(42).ForkInto(1, &a2)
	if a.Uint64() != a2.Uint64() {
		t.Fatal("ForkInto not deterministic")
	}
	// Streams should differ.
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d times", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		g := r.Range(2, 5)
		if g < 2 || g >= 5 {
			t.Fatalf("Range out of range: %v", g)
		}
		n := r.Intn(10)
		if n < 0 || n >= 10 {
			t.Fatalf("Intn out of range: %v", n)
		}
		e := r.Exp(3)
		if e < 0 || math.IsNaN(e) {
			t.Fatalf("Exp invalid: %v", e)
		}
	}
}

func TestRandBoolProbability(t *testing.T) {
	r := NewRand(11)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			n++
		}
	}
	frac := float64(n) / trials
	if frac < 0.22 || frac > 0.28 {
		t.Fatalf("Bool(0.25) frequency = %v", frac)
	}
}

func TestRandRangePanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Range(hi<lo) did not panic")
		}
	}()
	r.Range(5, 2)
}

func TestRandIntnPanics(t *testing.T) {
	r := NewRand(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestTraceHookObservesFiredEventsOnly(t *testing.T) {
	en := NewEngine()
	type obs struct {
		t     Time
		label string
	}
	var traced []obs
	en.SetTraceHook(func(tm Time, label string) {
		traced = append(traced, obs{tm, label})
	})
	en.Schedule(1, "first", func() {})
	cancelled := en.Schedule(2, "cancelled", func() {})
	en.Schedule(3, "second", func() {
		// Events scheduled and fired during the run are traced too.
		en.Schedule(en.Now()+1, "nested", func() {})
	})
	en.Cancel(cancelled)
	en.Run(10)
	want := []obs{{1, "first"}, {3, "second"}, {4, "nested"}}
	if len(traced) != len(want) {
		t.Fatalf("traced %v, want %v", traced, want)
	}
	for i := range want {
		if traced[i] != want[i] {
			t.Fatalf("traced %v, want %v", traced, want)
		}
	}
	if got := en.Executed(); got != uint64(len(want)) {
		t.Fatalf("executed %d, traced %d — hook out of sync", got, len(want))
	}
}

// TestLabelTable pins the label table: one name is one id per engine,
// distinct names get distinct ids, the zero Label names "", ids survive
// Reset, and the trace hook sees the names, whichever path scheduled.
func TestLabelTable(t *testing.T) {
	a, b := NewEngine(), NewEngine()
	names := []string{"gcs.beacon", "transport.deliver", "clock.walk", "gcs.beacon2"}
	ids := map[Label]string{0: ""}
	for _, name := range names {
		id := a.Label(name)
		if prev, dup := ids[id]; dup {
			t.Fatalf("%q and %q share id %d", name, prev, id)
		}
		ids[id] = name
	}
	if got := a.Label(""); got != 0 {
		t.Fatalf(`Label("") = %d, want 0`, got)
	}
	// b interns in the other order: its ids are its own, each stable.
	for i := len(names) - 1; i >= 0; i-- {
		b.Label(names[i])
	}
	if a.Label(names[0]) == b.Label(names[0]) {
		t.Fatalf("engines interning in opposite orders agree on %q's id", names[0])
	}
	a.Reset()
	for id, name := range ids {
		if got := a.Label(name); got != id {
			t.Fatalf("after Reset %q is id %d, was %d", name, got, id)
		}
	}

	var traced []string
	a.SetTraceHook(func(_ Time, label string) { traced = append(traced, label) })
	noop := func(uint64) {}
	a.Schedule(1, names[0], func() {})
	a.ScheduleArg(2, names[1], noop, 0)
	a.ScheduleLabel(3, a.Label(names[2]), noop, 0)
	a.ScheduleAfterArg(3, "fresh", noop, 0)
	a.ScheduleLabel(5, 0, noop, 0)
	a.Run(5)
	want := []string{names[0], names[1], names[2], "fresh", ""}
	if fmt.Sprint(traced) != fmt.Sprint(want) {
		t.Fatalf("traced %q, want %q", traced, want)
	}
}

// TestLabelOverflowPanics fills the 65 536-id space: a known name still
// resolves, a new one panics with a message naming it.
func TestLabelOverflowPanics(t *testing.T) {
	en := NewEngine()
	for i := len(en.labels); i < maxLabels; i++ {
		en.labels = append(en.labels, strconv.Itoa(i))
	}
	if got := en.Label("65535"); got != 65535 {
		t.Fatalf(`Label("65535") = %d in a full table, want 65535`, got)
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `"one too many"`) || !strings.Contains(msg, "65536") {
			t.Fatalf("overflow panicked with %q, want a message naming the label and the table size", msg)
		}
	}()
	en.Label("one too many")
}

// TestSlotSizes pins the slot layout: the queue half a bucket walk loads
// is 16 bytes, and with the cold half one event slot is at most 40.
func TestSlotSizes(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 16 {
		t.Fatalf("the queue half of a slot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(Event{}) + unsafe.Sizeof(payload{}) + unsafe.Sizeof(ArgHandler(nil)); got > 40 {
		t.Fatalf("an event slot is %d bytes, want at most 40", got)
	}
}

func TestTraceHookRemoval(t *testing.T) {
	en := NewEngine()
	calls := 0
	en.SetTraceHook(func(Time, string) { calls++ })
	en.Schedule(1, "a", func() {})
	en.Run(1)
	en.SetTraceHook(nil)
	en.Schedule(2, "b", func() {})
	en.Run(2)
	if calls != 1 {
		t.Fatalf("hook called %d times, want 1 (removal ignored?)", calls)
	}
}

// TestRunBefore pins the strict-limit window loop used by the parallel
// coordinator: events strictly before the limit fire, the event at the
// limit stays pending, and Now never advances past the last fired event.
func TestRunBefore(t *testing.T) {
	en := NewEngine()
	var got []Time
	rec := func() { got = append(got, en.Now()) }
	en.Schedule(1, "a", rec)
	en.Schedule(2, "b", rec)
	en.Schedule(2, "b2", rec)
	en.Schedule(3, "c", rec)
	if n := en.RunBefore(3); n != 3 {
		t.Fatalf("RunBefore fired %d events, want 3", n)
	}
	if len(got) != 3 || got[2] != 2 {
		t.Fatalf("fired times = %v, want [1 2 2]", got)
	}
	if en.Now() != 2 {
		t.Fatalf("Now = %v, want 2 (last fired event)", en.Now())
	}
	if en.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the at-limit event)", en.Pending())
	}
	if n := en.RunBefore(2); n != 0 {
		t.Fatalf("RunBefore below pending head fired %d events, want 0", n)
	}
}

// TestAdvanceTo pins the barrier primitive: forward jumps over an empty
// window succeed, backwards/no-op calls are ignored, and jumping over a
// pending event panics.
func TestAdvanceTo(t *testing.T) {
	en := NewEngine()
	en.AdvanceTo(4)
	if en.Now() != 4 {
		t.Fatalf("Now = %v, want 4", en.Now())
	}
	en.AdvanceTo(2) // no-op, not a panic
	if en.Now() != 4 {
		t.Fatalf("Now = %v after backwards AdvanceTo, want 4", en.Now())
	}
	en.Schedule(5, "x", func() {})
	en.AdvanceTo(5) // head at exactly t is fine: it can still fire at 5
	if en.Now() != 5 {
		t.Fatalf("Now = %v, want 5", en.Now())
	}
	en.Schedule(6, "y", func() {})
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo over a pending event did not panic")
		}
	}()
	en.AdvanceTo(7)
}
