package des

import (
	"container/heap"
	"fmt"
	"testing"
)

// This file adversarially tests the kernel's hand-rolled 4-ary index
// heap against a reference implementation built on the standard
// library's container/heap: random interleavings of Schedule,
// ScheduleArg, Cancel, and Step must produce the identical fire order
// (time ties broken by scheduling sequence), and EventRef handles must
// go stale exactly when their event fires or is cancelled — never
// before, and never resurrect after the pooled Event is recycled.

// refEvent mirrors the kernel's (t, seq) ordering key plus an id the
// test uses to match fires across the two queues.
type refEvent struct {
	t   Time
	seq uint64
	id  int
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
// deletion (cancelled ids are skipped at pop time), reproducing the
// kernel's externally visible behavior without its index bookkeeping.
type refQueue struct {
	h         refHeap
	cancelled map[int]bool
	now       Time
	seq       uint64
}

func newRefQueue() *refQueue {
	return &refQueue{cancelled: make(map[int]bool)}
}

func (q *refQueue) schedule(t Time, id int) {
	heap.Push(&q.h, &refEvent{t: t, seq: q.seq, id: id})
	q.seq++
}

func (q *refQueue) cancel(id int) { q.cancelled[id] = true }

// step pops the earliest live event, advances now, and returns its id;
// ok is false when the queue holds only cancelled entries or nothing.
func (q *refQueue) step() (id int, at Time, ok bool) {
	for q.h.Len() > 0 {
		e := heap.Pop(&q.h).(*refEvent)
		if q.cancelled[e.id] {
			continue
		}
		q.now = e.t
		return e.id, e.t, true
	}
	return 0, 0, false
}

// TestHeapMatchesReferenceHeap drives the engine and the oracle through
// the same random interleaving of operations and checks that every
// fired event matches in both id and time, in order.
func TestHeapMatchesReferenceHeap(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := NewRand(0xbeef + uint64(trial))
			en := NewEngine()
			ref := newRefQueue()

			type live struct {
				ref EventRef
				id  int
			}
			var pending []live
			firedID := -1
			fire := func(arg uint64) { firedID = int(arg) }
			nextID := 0

			// compact drops refs that went stale (their event fired).
			compact := func() {
				kept := pending[:0]
				for _, l := range pending {
					if l.ref.Pending() {
						kept = append(kept, l)
					}
				}
				pending = kept
			}

			for op := 0; op < 2000; op++ {
				switch r := rng.Float64(); {
				case r < 0.45: // schedule (alternate closure / arg forms)
					// Coarse time grid forces plenty of exact ties, so the
					// (t, seq) tiebreak is exercised hard.
					at := en.Now() + Time(rng.Intn(8))
					id := nextID
					nextID++
					var er EventRef
					if id%2 == 0 {
						er = en.ScheduleArg(at, "p", fire, uint64(id))
					} else {
						idc := id
						er = en.Schedule(at, "p", func() { firedID = idc })
					}
					ref.schedule(at, id)
					if !er.Pending() {
						t.Fatalf("op %d: fresh ref not pending", op)
					}
					if er.e.t != at {
						t.Fatalf("op %d: scheduled at %v, want %v", op, er.e.t, at)
					}
					pending = append(pending, live{ref: er, id: id})
				case r < 0.6: // cancel a random pending event
					compact()
					if len(pending) == 0 {
						continue
					}
					i := rng.Intn(len(pending))
					l := pending[i]
					en.Cancel(l.ref)
					ref.cancel(l.id)
					if l.ref.Pending() {
						t.Fatalf("op %d: ref still pending after Cancel", op)
					}
					// A second Cancel of the stale ref must be a no-op even
					// after the Event struct is recycled by a later schedule.
					en.Cancel(l.ref)
					pending = append(pending[:i], pending[i+1:]...)
				default: // step both queues and compare
					wantID, wantAt, wantOK := ref.step()
					firedID = -1
					gotOK := en.Step()
					if gotOK != wantOK {
						t.Fatalf("op %d: Step fired=%v, reference fired=%v", op, gotOK, wantOK)
					}
					if !wantOK {
						continue
					}
					if firedID != wantID {
						t.Fatalf("op %d: fired id %d, reference id %d", op, firedID, wantID)
					}
					if en.Now() != wantAt {
						t.Fatalf("op %d: fired at %v, reference at %v", op, en.Now(), wantAt)
					}
				}
				if en.Pending() > len(pending) {
					compact()
					if en.Pending() != len(pending) {
						t.Fatalf("op %d: engine pending %d, tracked live refs %d", op, en.Pending(), len(pending))
					}
				}
			}

			// Drain both queues to the end: the tails must agree too.
			for {
				wantID, wantAt, wantOK := ref.step()
				firedID = -1
				gotOK := en.Step()
				if gotOK != wantOK {
					t.Fatalf("drain: Step fired=%v, reference fired=%v", gotOK, wantOK)
				}
				if !wantOK {
					break
				}
				if firedID != wantID || en.Now() != wantAt {
					t.Fatalf("drain: fired (%d,%v), reference (%d,%v)", firedID, en.Now(), wantID, wantAt)
				}
			}
			compact()
			if len(pending) != 0 {
				t.Fatalf("drained engine left %d refs pending", len(pending))
			}
		})
	}
}

// TestHeapRefStalenessAcrossRecycle pins the generation check: a ref to
// a fired event must stay stale even after the pooled Event underneath
// it is reused for a new schedule at the same heap slot.
func TestHeapRefStalenessAcrossRecycle(t *testing.T) {
	en := NewEngine()
	first := en.Schedule(1, "first", func() {})
	en.Step()
	if first.Pending() {
		t.Fatal("ref pending after its event fired")
	}
	// The free list holds exactly the recycled Event; this schedule
	// reuses it with a bumped generation.
	second := en.Schedule(2, "second", func() {})
	if !second.Pending() {
		t.Fatal("recycled event's new ref not pending")
	}
	if first.Pending() {
		t.Fatal("stale ref resurrected by event recycling")
	}
	en.Cancel(first) // must not cancel the recycled event
	if !second.Pending() {
		t.Fatal("Cancel via stale ref removed the recycled event")
	}
}
