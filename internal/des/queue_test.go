package des

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"testing"
)

// This file adversarially tests the kernel's radix event queue against a
// reference implementation built on the standard library's
// container/heap: decoded sequences of Schedule, ScheduleArg,
// ScheduleLabel, Cancel, Step, Run, RunBefore, AdvanceTo, NextEventTime
// and Reset must produce the identical fire order (time ties broken by
// scheduling sequence), labels and pending count, and EventRef handles
// must go stale exactly when their event fires or is cancelled — never
// before, and never resurrect after the slot is reused.

// refEvent mirrors the kernel's (t, seq) ordering key plus an id the
// test uses to match fires across the two queues, and the event's label
// (the engine's as traced, the oracle's as scheduled).
type refEvent struct {
	t     Time
	seq   uint64
	id    int
	label string
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// refQueue is the oracle: a container/heap priority queue with lazy
// deletion (cancelled ids are skipped at the top), reproducing the
// kernel's externally visible behavior without its bucket bookkeeping.
type refQueue struct {
	h         refHeap
	cancelled map[int]bool
	now       Time
	seq       uint64
	live      int
}

func newRefQueue() *refQueue {
	return &refQueue{cancelled: make(map[int]bool)}
}

func (q *refQueue) schedule(t Time, id int, label string) {
	heap.Push(&q.h, &refEvent{t: t, seq: q.seq, id: id, label: label})
	q.seq++
	q.live++
}

// cancel drops a live id.
func (q *refQueue) cancel(id int) {
	q.cancelled[id] = true
	q.live--
}

// head returns the earliest live event without removing it.
func (q *refQueue) head() (*refEvent, bool) {
	for q.h.Len() > 0 {
		if e := q.h[0]; !q.cancelled[e.id] {
			return e, true
		}
		heap.Pop(&q.h)
	}
	return nil, false
}

// step pops the earliest live event and advances now to it.
func (q *refQueue) step() (*refEvent, bool) {
	e, ok := q.head()
	if !ok {
		return nil, false
	}
	heap.Pop(&q.h)
	q.now = e.t
	q.live--
	return e, true
}

// queueHarness drives an Engine and the oracle through the same
// operations, recording the engine's fires to compare after each one.
type queueHarness struct {
	t     testing.TB
	en    *Engine
	ref   *refQueue
	live  map[int]EventRef
	ids   []int // live ids in scheduling order, for random picks
	stale []EventRef
	fired []refEvent // engine fires since the last check (t, id)
	want  []refEvent // oracle fires since the last check
	next  int
	fire  ArgHandler
	// lbls holds queueLabels' ids, interned once when the harness starts
	// and used across Resets; traced is the label the trace hook saw for
	// the event now firing.
	lbls   []Label
	traced string
}

// queueLabels are the labels the harness schedules under, by id.
var queueLabels = []string{"p", "q", "deliver", "timer", "clock.walk"}

func newQueueHarness(t testing.TB) *queueHarness {
	h := &queueHarness{t: t, en: NewEngine(), ref: newRefQueue(), live: make(map[int]EventRef)}
	h.fire = func(arg uint64) {
		h.fired = append(h.fired, refEvent{t: h.en.Now(), id: int(arg), label: h.traced})
	}
	h.en.SetTraceHook(func(_ Time, label string) { h.traced = label })
	for _, name := range queueLabels {
		h.lbls = append(h.lbls, h.en.Label(name))
	}
	return h
}

// schedule schedules the next id at at through one of the three paths:
// Schedule (a plain Handler, wrapped), ScheduleArg (label by name) or
// ScheduleLabel (label by the harness's id).
func (h *queueHarness) schedule(op int, at Time, path int) {
	id := h.next
	h.next++
	k := id % len(queueLabels)
	var er EventRef
	switch path % 3 {
	case 0:
		er = h.en.Schedule(at, queueLabels[k], func() { h.fire(uint64(id)) })
	case 1:
		er = h.en.ScheduleArg(at, queueLabels[k], h.fire, uint64(id))
	default:
		er = h.en.ScheduleLabel(at, h.lbls[k], h.fire, uint64(id))
	}
	h.ref.schedule(at, id, queueLabels[k])
	if !er.Pending(h.en) {
		h.t.Fatalf("op %d: fresh ref not pending", op)
	}
	if got := h.en.slab[er.slot].t; got != at || math.Signbit(got) {
		h.t.Fatalf("op %d: scheduled at %v (sign %v), want %v as +0 or positive", op, got, math.Signbit(got), at)
	}
	h.live[id] = er
	h.ids = append(h.ids, id)
}

// drop retires id from the live set after it fired or was cancelled.
func (h *queueHarness) drop(id int) {
	h.stale = append(h.stale, h.live[id])
	delete(h.live, id)
	for i, x := range h.ids {
		if x == id {
			h.ids = append(h.ids[:i], h.ids[i+1:]...)
			break
		}
	}
}

func (h *queueHarness) cancel(op, id int) {
	r := h.live[id]
	h.en.Cancel(r)
	h.ref.cancel(id)
	if r.Pending(h.en) {
		h.t.Fatalf("op %d: ref still pending after Cancel", op)
	}
	h.drop(id)
	// A second Cancel of the stale ref must be a no-op.
	h.en.Cancel(r)
}

// refStep fires the oracle's head into want.
func (h *queueHarness) refStep() bool {
	e, ok := h.ref.step()
	if ok {
		h.want = append(h.want, refEvent{t: e.t, id: e.id, label: e.label})
	}
	return ok
}

// headTime is the oracle's earliest live time.
func (h *queueHarness) headTime() (Time, bool) {
	e, ok := h.ref.head()
	if !ok {
		return 0, false
	}
	return e.t, true
}

// check compares the fires since the last check, the clock and the
// pending count.
func (h *queueHarness) check(op int, what string) {
	if len(h.fired) != len(h.want) {
		h.t.Fatalf("op %d (%s): engine fired %v, reference %v", op, what, h.fired, h.want)
	}
	for i := range h.want {
		if h.fired[i] != h.want[i] {
			h.t.Fatalf("op %d (%s): engine fired %v, reference %v", op, what, h.fired, h.want)
		}
		if r := h.live[h.want[i].id]; r.Pending(h.en) {
			h.t.Fatalf("op %d (%s): ref of fired event %d still pending", op, what, h.want[i].id)
		}
		h.drop(h.want[i].id)
	}
	h.fired, h.want = h.fired[:0], h.want[:0]
	if h.en.Now() != h.ref.now {
		h.t.Fatalf("op %d (%s): Now %v, reference %v", op, what, h.en.Now(), h.ref.now)
	}
	if h.en.Pending() != h.ref.live || len(h.live) != h.ref.live {
		h.t.Fatalf("op %d (%s): engine pending %d, reference %d, tracked %d", op, what, h.en.Pending(), h.ref.live, len(h.live))
	}
}

// wideTime returns a time at least now whose key differs from now's at
// any hex level, chosen by arg: arg&3 picks a subnormal offset, a
// magnitude from 1e-300 to 1e300, an exact tie with a queued time, or a
// key up to 63 units in the last place above now's.
func (h *queueHarness) wideTime(now Time, arg int) Time {
	v := arg >> 2 // 0..63
	switch arg & 3 {
	case 0:
		return now + math.Float64frombits(uint64(v+1)<<(v%46))
	case 1:
		return now + math.Pow(10, float64(v*600/63-300))
	case 2:
		if len(h.ids) > 0 {
			return h.en.slab[h.live[h.ids[v%len(h.ids)]].slot].t
		}
		return now
	default: // capped at +Inf, whose key is the largest
		return math.Float64frombits(min(math.Float64bits(now)+uint64(v), math.Float64bits(math.Inf(1))))
	}
}

// runQueueOps decodes data into queue operations, two bytes each (an
// opcode and an argument), and applies them to the engine and the
// oracle, checking after every one. The opcode is code%15; a schedule
// takes path code/15%3 (see queueHarness.schedule).
func runQueueOps(t testing.TB, data []byte) {
	h := newQueueHarness(t)
	for op := 0; 2*op+1 < len(data); op++ {
		code, arg := data[2*op], int(data[2*op+1])
		now, path := h.ref.now, int(code/15)
		schedule := func(at Time) { h.schedule(op, at, path) }
		var what string
		switch code % 15 {
		case 0, 1, 2: // schedule on a coarse grid: plenty of exact ties
			what = "schedule"
			schedule(now + Time(arg%8))
		case 3: // schedule at a fine-grained time: deep buckets
			what = "schedule fine"
			schedule(now + Time(arg)/97)
		case 4: // a burst of exact ties at now, -0 while now is 0
			what = "tie burst"
			at := now
			if at == 0 {
				at = math.Copysign(0, -1)
			}
			for i := 0; i < 1+arg%6; i++ {
				schedule(at)
			}
		case 5:
			what = "schedule +Inf"
			schedule(math.Inf(1))
		case 6: // cancel a queued event
			what = "cancel queued"
			if len(h.ids) > 0 {
				h.cancel(op, h.ids[arg%len(h.ids)])
			}
		case 7:
			what = "cancel head"
			if e, ok := h.ref.head(); ok {
				h.cancel(op, e.id)
			}
		case 8: // cancel a stale ref: nothing changes
			what = "cancel stale"
			if len(h.stale) > 0 {
				h.en.Cancel(h.stale[arg%len(h.stale)])
			}
		case 9:
			what = "step"
			fired := h.en.Step()
			if fired != h.refStep() {
				t.Fatalf("op %d: Step fired=%v, reference disagrees", op, fired)
			}
		case 10: // Run to a horizon before, at or past the head, then
			// schedule between the new now and the head
			what = "run"
			horizon := now + Time(arg%4)
			if head, ok := h.headTime(); ok && arg%3 == 0 {
				horizon = head
			} else if ok && arg%3 == 1 && !math.IsInf(head, 1) {
				horizon = now + (head-now)*Time(arg)/256
			}
			h.en.Run(horizon)
			for {
				if head, ok := h.headTime(); !ok || head > horizon {
					break
				}
				h.refStep()
			}
			h.ref.now = max(h.ref.now, horizon)
			h.check(op, what)
			if head, ok := h.headTime(); ok && head > h.ref.now && !math.IsInf(head, 1) {
				schedule(h.ref.now + (head-h.ref.now)/2)
			}
		case 11: // RunBefore a limit equal to a queued time
			what = "run before"
			limit := now + Time(arg%4)
			if head, ok := h.headTime(); ok {
				limit = head
				if arg%2 == 0 {
					limit = h.en.slab[h.live[h.ids[arg%len(h.ids)]].slot].t
				}
			}
			got := h.en.RunBefore(limit)
			want := 0
			for {
				if head, ok := h.headTime(); !ok || head >= limit {
					break
				}
				h.refStep()
				want++
			}
			if got != want {
				t.Fatalf("op %d: RunBefore(%v) fired %d, reference %d", op, limit, got, want)
			}
		case 12: // peek, then AdvanceTo the head's own time or past it
			what = "peek and advance"
			head, ok := h.headTime()
			if got, gotOK := h.en.NextEventTime(); got != head || gotOK != ok || math.Signbit(got) {
				t.Fatalf("op %d: NextEventTime = %v,%v, reference %v,%v", op, got, gotOK, head, ok)
			}
			switch {
			case !ok:
				h.en.AdvanceTo(now + Time(arg%4))
				h.ref.now = max(now, now+Time(arg%4))
			case arg%2 == 0 || math.IsInf(head, 1):
				h.en.AdvanceTo(head)
				h.ref.now = max(now, head)
			default:
				past := math.Nextafter(head, math.Inf(1))
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("op %d: AdvanceTo(%v) over the head at %v did not panic", op, past, head)
						}
					}()
					h.en.AdvanceTo(past)
				}()
			}
		case 13: // Reset mid-run: every queued ref goes stale
			what = "reset"
			if arg%4 != 0 {
				continue
			}
			h.en.Reset()
			for _, id := range h.ids {
				if h.live[id].Pending(h.en) {
					t.Fatalf("op %d: ref pending after Reset", op)
				}
				h.stale = append(h.stale, h.live[id])
			}
			clear(h.live)
			h.ids = h.ids[:0]
			h.ref = newRefQueue()
		case 14: // a time at any hex level: subnormal to 1e300, or a tie
			what = "schedule wide"
			schedule(h.wideTime(now, arg))
		}
		h.check(op, what)
	}
	// Drain both queues to the end: the tails must agree too.
	for h.en.Step() {
		if !h.refStep() {
			t.Fatal("drain: engine fired past the reference")
		}
	}
	if h.refStep() {
		t.Fatal("drain: reference fired past the engine")
	}
	h.check(-1, "drain")
	if len(h.live) != 0 {
		t.Fatalf("drained engine left %d refs pending", len(h.live))
	}
}

// randomOps returns n random bytes.
func randomOps(seed uint64, n int) []byte {
	r := NewRand(seed)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(r.Uint64())
	}
	return data
}

// TestHeapMatchesReferenceHeap drives the engine and the oracle through
// the same random operations and checks that every fired event matches
// in both id and time, in order.
func TestHeapMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			runQueueOps(t, randomOps(0xbeef+uint64(trial), 4000))
		})
	}
}

// FuzzQueueOrder feeds arbitrary operation sequences to the same
// engine-versus-oracle harness.
func FuzzQueueOrder(f *testing.F) {
	for seed := uint64(0); seed < 4; seed++ {
		f.Add(randomOps(seed, 256))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runQueueOps(t, data)
	})
}

// TestBucketOrder checks the radix heap's three invariants on random
// keys at every hex level above a random last: a larger key never lands
// in a lower bucket, only last itself lands in bucket 0 and no other key
// in a bucket of digit 0, and moving last up to the least key of the
// lowest bucket (a refill) moves that bucket's keys strictly lower and
// leaves every other bucket's keys where they were.
func TestBucketOrder(t *testing.T) {
	r, en := NewRand(7), NewEngine()
	keys := make([]uint64, 48)
	for trial := 0; trial < 4000; trial++ {
		last := r.Uint64() >> (1 + r.Intn(64)) // a nonnegative float's bits
		en.last = last
		for i := range keys {
			keys[i] = last + r.Uint64()>>(1+r.Intn(64))
			if i > 0 && r.Intn(4) == 0 {
				keys[i] = keys[r.Intn(i)] // an exact tie
			}
		}
		slices.Sort(keys)
		low, least := nBuckets, uint64(0)
		for i, k := range keys {
			b := en.bucketOf(k)
			if i > 0 && b < en.bucketOf(keys[i-1]) {
				t.Fatalf("last %#x: key %#x in bucket %d below key %#x in %d", last, k, b, keys[i-1], en.bucketOf(keys[i-1]))
			}
			if (b == 0) != (k == last) || b != 0 && b&15 == 0 {
				t.Fatalf("last %#x: key %#x in bucket %d", last, k, b)
			}
			if b < low {
				low, least = b, k
			}
		}
		before := make([]int, len(keys))
		for i, k := range keys {
			before[i] = en.bucketOf(k)
		}
		en.last = least
		for i, k := range keys {
			switch b := en.bucketOf(k); {
			case before[i] == low && b >= low && low != 0:
				t.Fatalf("refill to %#x: key %#x stayed in bucket %d", least, k, b)
			case before[i] != low && b != before[i]:
				t.Fatalf("refill to %#x: key %#x moved from bucket %d to %d", least, k, before[i], b)
			}
		}
	}
}

// TestCancelBucketMinimum drives the stale-minimum path: cancelling the
// least key of the lowest non-empty bucket marks the bucket stale, and
// the next peek walks it for the true minimum instead of reporting the
// cancelled one.
func TestCancelBucketMinimum(t *testing.T) {
	en := NewEngine()
	var fired []Time
	rec := func(uint64) { fired = append(fired, en.Now()) }
	en.ScheduleArg(1, "last", rec, 0)
	en.Step() // last is now 1's key, and bucket 0 is empty
	at := []Time{1.5 + 2e-6, 1.5, 1.5 + 1e-6, 3}
	refs := make([]EventRef, len(at))
	for i, x := range at {
		refs[i] = en.ScheduleArg(x, "q", rec, 0)
	}
	b := en.bucketOf(math.Float64bits(1.5))
	for _, x := range at[:3] {
		if got := en.bucketOf(math.Float64bits(x)); got != b || b == 0 {
			t.Fatalf("%v in bucket %d, want the shared nonzero bucket %d", x, got, b)
		}
	}
	if head, _ := en.NextEventTime(); head != 1.5 {
		t.Fatalf("head %v, want 1.5", head)
	}
	en.Cancel(refs[1])
	if en.stale[b>>6]&(1<<(b&63)) == 0 {
		t.Fatalf("cancelling bucket %d's least key left it fresh", b)
	}
	if head, _ := en.NextEventTime(); head != 1.5+1e-6 {
		t.Fatalf("head %v after cancelling 1.5, want %v", head, 1.5+1e-6)
	}
	if en.stale[b>>6]&(1<<(b&63)) != 0 || en.bk[b].min != math.Float64bits(1.5+1e-6) {
		t.Fatalf("the peek left bucket %d stale or its min at %v", b, math.Float64frombits(en.bk[b].min))
	}
	en.Cancel(refs[0]) // not the least: the bucket stays fresh
	if en.stale[b>>6]&(1<<(b&63)) != 0 {
		t.Fatalf("cancelling a key above bucket %d's least marked it stale", b)
	}
	en.Run(10)
	if want := []Time{1, 1.5 + 1e-6, 3}; !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
}

// TestHeapRefStalenessAcrossRecycle pins the generation check: a ref to
// a fired event must stay stale even after its slot is reused for a new
// schedule.
func TestHeapRefStalenessAcrossRecycle(t *testing.T) {
	en := NewEngine()
	first := en.Schedule(1, "first", func() {})
	en.Step()
	if first.Pending(en) {
		t.Fatal("ref pending after its event fired")
	}
	// The free list holds exactly the released slot; this schedule
	// reuses it with a bumped generation.
	second := en.Schedule(2, "second", func() {})
	if second.slot != first.slot {
		t.Fatalf("schedule took slot %d, want the released slot %d", second.slot, first.slot)
	}
	if !second.Pending(en) {
		t.Fatal("recycled event's new ref not pending")
	}
	if first.Pending(en) {
		t.Fatal("stale ref resurrected by slot reuse")
	}
	en.Cancel(first) // must not cancel the recycled event
	if !second.Pending(en) {
		t.Fatal("Cancel via stale ref removed the recycled event")
	}
}

// TestCancelGarbageBounded runs the timer-reset pattern — cancel a
// random one of 32k pending events and schedule its replacement — a
// million times without firing anything. The slab must stay within
// twice the peak pending count: a queue that left cancelled events in
// its buckets until they surfaced would grow by one slot per cancel.
func TestCancelGarbageBounded(t *testing.T) {
	en, r := NewEngine(), NewRand(1)
	noop := func(uint64) {}
	refs := make([]EventRef, 32<<10)
	for i := range refs {
		refs[i] = en.ScheduleArg(en.Now()+0.11*(1-r.Float64()), "cancel", noop, 0)
	}
	peak := en.Pending()
	for i := 0; i < 1<<20; i++ {
		j := r.Intn(len(refs))
		en.Cancel(refs[j])
		refs[j] = en.ScheduleArg(en.Now()+0.11*(1-r.Float64()), "cancel", noop, 0)
		peak = max(peak, en.Pending())
		if slots := len(en.slab) - 1; slots > 2*peak {
			t.Fatalf("after %d cancels the slab holds %d slots, peak pending %d", i+1, slots, peak)
		}
	}
	if en.Pending() != len(refs) {
		t.Fatalf("Pending = %d, want %d", en.Pending(), len(refs))
	}
}

// TestBoxGarbageBounded is TestCancelGarbageBounded for plain
// Handlers, which Schedule wraps in an ArgHandler: a million cycles of
// cancelling one of 32k pending Schedule events and scheduling its
// replacement must keep the slab within twice the peak pending count,
// and a Reset must drop every callback, wrapped Handlers included.
func TestBoxGarbageBounded(t *testing.T) {
	en, r := NewEngine(), NewRand(1)
	noop := func() {}
	refs := make([]EventRef, 32<<10)
	for i := range refs {
		refs[i] = en.Schedule(en.Now()+0.11*(1-r.Float64()), "box", noop)
	}
	peak := en.Pending()
	for i := 0; i < 1<<20; i++ {
		j := r.Intn(len(refs))
		en.Cancel(refs[j])
		refs[j] = en.Schedule(en.Now()+0.11*(1-r.Float64()), "box", noop)
		peak = max(peak, en.Pending())
		if slots := len(en.slab) - 1; slots > 2*peak {
			t.Fatalf("after %d cancels the slab holds %d slots, peak pending %d", i+1, slots, peak)
		}
	}
	en.Reset()
	for s := range int32(len(en.slab)) {
		if *en.call(s) != nil {
			t.Fatalf("slot %d still holds a callback after Reset", s)
		}
	}
}

// BenchmarkQueueMix is a gcs node's event mix on its own: per node one
// ~0.1 s timer, which sends two deliveries of at most 0.01 s when it
// fires and re-arms, and one ~1 s driver, which resets the timer and
// re-arms. Each op is one fired event. Like the clock and transport
// schedulers it interns its labels once.
func BenchmarkQueueMix(b *testing.B) {
	for _, n := range []int{1 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			en, r := NewEngine(), NewRand(1)
			lDeliver, lTimer, lDriver := en.Label("deliver"), en.Label("timer"), en.Label("driver")
			timers := make([]EventRef, n)
			var timer, driver, deliver ArgHandler
			deliver = func(uint64) {}
			after := func(d Time, lbl Label, fn ArgHandler, i uint64) EventRef {
				return en.ScheduleLabel(en.Now()+d, lbl, fn, i)
			}
			timer = func(i uint64) {
				after(0.01*(1-r.Float64()), lDeliver, deliver, i)
				after(0.01*(1-r.Float64()), lDeliver, deliver, i)
				timers[i] = after(0.1*(0.9+0.2*r.Float64()), lTimer, timer, i)
			}
			driver = func(i uint64) {
				en.Cancel(timers[i])
				timers[i] = after(0.1*(0.9+0.2*r.Float64()), lTimer, timer, i)
				after(0.9+0.2*r.Float64(), lDriver, driver, i)
			}
			for i := range uint64(n) {
				timers[i] = en.ScheduleAfterArg(0.1*r.Float64(), "timer", timer, i)
				en.ScheduleAfterArg(r.Float64(), "driver", driver, i)
			}
			for range 8 * n {
				en.Step()
			}
			b.ReportAllocs()
			for b.Loop() {
				en.Step()
			}
		})
	}
}
