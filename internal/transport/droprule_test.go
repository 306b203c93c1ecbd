package transport

import (
	"fmt"
	"sort"
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// eagerModel is the transport this package used to implement, kept as
// the reference for the drop rule: a per-edge list of in-flight messages
// that an edge removal clears on the spot. The Network decides the same
// losses later, one delivery at a time, from the graph's history.
type eagerModel struct {
	pending   map[dyngraph.Edge][]Message
	delivered []Message
	dropped   uint64
}

func (m *eagerModel) send(msg Message) {
	m.pending[msg.Edge] = append(m.pending[msg.Edge], msg)
}

func (m *eagerModel) remove(e dyngraph.Edge) {
	m.dropped += uint64(len(m.pending[e]))
	delete(m.pending, e)
}

// advance delivers everything due by t (inclusive, like Engine.Run).
func (m *eagerModel) advance(t float64) {
	for e, list := range m.pending {
		keep := list[:0]
		for _, msg := range list {
			if msg.DeliverAt <= t {
				m.delivered = append(m.delivered, msg)
			} else {
				keep = append(keep, msg)
			}
		}
		m.pending[e] = keep
	}
}

func sortMessages(ms []Message) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].Value < ms[j].Value })
}

// TestDeliveryTimeDropMatchesEagerCancel drives a raw Network through a
// seeded script of add / remove / re-add / send / advance steps and
// checks it against eagerModel: the same messages delivered (every
// message carries a unique value, so the sorted lists must be equal,
// timestamps included) and, once every flight has ended, the same
// Dropped.
func TestDeliveryTimeDropMatchesEagerCancel(t *testing.T) {
	const n, maxDelay = 6, 0.25
	laws := []struct {
		name string
		mk   func(seed uint64) DelayFn
	}{
		{"UniformDelay", func(seed uint64) DelayFn { return UniformDelay(maxDelay, des.NewRand(seed)) }},
		{"FixedDelay", func(uint64) DelayFn { return FixedDelay(0.2) }},
	}
	for _, law := range laws {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", law.name, seed), func(t *testing.T) {
				r := newRig(t, n, dyngraph.Ring(n), law.mk(seed), maxDelay)
				// The model draws its delays from an identical stream, one
				// draw per accepted send, as the Network does.
				modelDelay := law.mk(seed)
				model := &eagerModel{pending: map[dyngraph.Edge][]Message{}}
				rnd := des.NewRand(seed * 977)
				var refused, readds uint64
				everRemoved := map[dyngraph.Edge]bool{}

				for step := 0; step < 3000; step++ {
					// Steps are short against the delays, so removals catch
					// messages in flight and re-adds land inside flights.
					now := r.en.Now() + rnd.Range(0.001, 0.08)
					r.en.Run(now)
					model.advance(now)
					u := rnd.Intn(n)
					v := (u + 1 + rnd.Intn(n-1)) % n
					e := dyngraph.E(u, v)
					switch k := rnd.Intn(100); {
					case k < 60:
						ok := r.net.Send(u, v, float64(step))
						if ok != r.g.Present(e) {
							t.Fatalf("step %d: Send accepted=%v on an edge with Present=%v", step, ok, r.g.Present(e))
						}
						if !ok {
							refused++
							break
						}
						model.send(Message{From: u, To: v, Edge: e, Value: float64(step),
							SentAt: now, DeliverAt: now + modelDelay(nil)})
					case r.g.Present(e):
						r.g.Remove(now, e)
						model.remove(e)
						everRemoved[e] = true
					default:
						if everRemoved[e] {
							readds++
						}
						r.g.Add(now, e)
					}
					if got := r.net.Stats().Delivered; got != uint64(len(model.delivered)) {
						t.Fatalf("step %d: delivered %d, model %d", step, got, len(model.delivered))
					}
				}
				end := r.en.Now() + maxDelay
				r.en.Run(end)
				model.advance(end)

				var got []Message
				for _, ms := range r.got {
					got = append(got, ms...)
				}
				sortMessages(got)
				sortMessages(model.delivered)
				if len(got) != len(model.delivered) {
					t.Fatalf("delivered %d messages, model %d", len(got), len(model.delivered))
				}
				for i := range got {
					if got[i] != model.delivered[i] {
						t.Fatalf("delivery %d: got %+v, model %+v", i, got[i], model.delivered[i])
					}
				}
				s := r.net.Stats()
				if s.Dropped != model.dropped || s.Refused != refused {
					t.Fatalf("stats = %+v, model dropped %d refused %d", s, model.dropped, refused)
				}
				if s.Sent != s.Delivered+s.Dropped {
					t.Fatalf("traffic not conserved after the last flight ended: %+v", s)
				}
				if s.Delivered == 0 || s.Dropped == 0 || refused == 0 || readds == 0 {
					t.Fatalf("degenerate script: %+v, refused %d, re-adds %d", s, refused, readds)
				}
			})
		}
	}
}

// TestDropRuleTies pins the rule where the measure-zero cases decide:
// a message is carried iff dyngraph's Interval.Covers(SentAt, DeliverAt)
// holds for the edge's current interval, i.e. Start <= SentAt and
// DeliverAt < End. The sharded harness (sim's pshard.deliver) asks the
// same ExistsThroughout, but its delays come from per-node streams and
// cannot be pinned to a tie, so this is where the answers are fixed for
// both — the one predicate is what makes the two DES harnesses agree.
func TestDropRuleTies(t *testing.T) {
	e := dyngraph.E(0, 1)
	const d = 0.5

	t.Run("removal at exactly DeliverAt is a drop", func(t *testing.T) {
		r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(d), 1)
		// Scheduled before the send, so at t = d the removal fires first —
		// as it always does on the sharded harness, where churn runs in the
		// global phase ahead of the shard events of the same instant. (A
		// removal event ordered after the delivery has not happened yet
		// when the flight ends, and cannot lose it.)
		r.en.Schedule(d, "cut", func() { r.g.Remove(r.en.Now(), e) })
		r.net.Send(0, 1, 1)
		r.en.Run(1)
		if s := r.net.Stats(); s.Dropped != 1 || s.Delivered != 0 || len(r.got[1]) != 0 {
			t.Fatalf("stats = %+v, deliveries %v; want the message lost", s, r.got[1])
		}
	})

	t.Run("a send at the instant of Add is carried", func(t *testing.T) {
		r := newRig(t, 2, nil, FixedDelay(d), 1)
		r.en.Schedule(0.3, "add+send", func() {
			r.g.Add(r.en.Now(), e)
			r.net.Send(0, 1, 1)
		})
		r.en.Run(1)
		if s := r.net.Stats(); s.Delivered != 1 || s.Dropped != 0 || len(r.got[1]) != 1 {
			t.Fatalf("stats = %+v, deliveries %v; want the message carried", s, r.got[1])
		}
	})

	t.Run("remove and re-add inside one flight is a drop", func(t *testing.T) {
		r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(d), 1)
		r.net.Send(0, 1, 1)
		r.en.Schedule(0.2, "flap", func() {
			r.g.Remove(r.en.Now(), e)
			r.g.Add(r.en.Now(), e)
		})
		r.en.Run(1)
		if !r.g.Present(e) {
			t.Fatal("edge not back after the flap")
		}
		if s := r.net.Stats(); s.Dropped != 1 || s.Delivered != 0 || len(r.got[1]) != 0 {
			t.Fatalf("stats = %+v, deliveries %v; want the message lost", s, r.got[1])
		}
	})
}
