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
// losses later, one delivery at a time, from the presence record each
// flight was sent on.
type eagerModel struct {
	pending   map[dyngraph.Edge][]Message
	delivered []Message
	dropped   uint64
}

func (m *eagerModel) send(e dyngraph.Edge, msg Message) {
	m.pending[e] = append(m.pending[e], msg)
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
// timestamps and records included) and, once every flight has ended, the
// same Dropped. Some steps take no time and act on the previous step's
// edge, so a send is followed at its own instant by a remove and a
// re-add — a loss under eager cancelling.
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
				var refused, readds, flaps uint64
				everRemoved := map[dyngraph.Edge]bool{}
				// sentAt and cutAt hold an edge's last send and last removal
				// time, to count sends flapped away at their own instant.
				sentAt, cutAt := map[dyngraph.Edge]float64{}, map[dyngraph.Edge]float64{}
				now, u, v := 0.0, 0, 0

				for step := 0; step < 3000; step++ {
					// Steps are short against the delays, so removals catch
					// messages in flight and re-adds land inside flights; one
					// in five takes no time and reuses the last edge.
					if step == 0 || !rnd.Bool(0.2) {
						now += rnd.Range(0.001, 0.08)
						u = rnd.Intn(n)
						v = (u + 1 + rnd.Intn(n-1)) % n
					}
					r.en.Run(now)
					model.advance(now)
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
						rec, _ := r.g.Current(e)
						model.send(e, Message{From: u, To: v, Rec: rec, Value: float64(step),
							DeliverAt: now + modelDelay(nil)})
						sentAt[e] = now
					case r.g.Present(e):
						r.g.Remove(now, e)
						model.remove(e)
						everRemoved[e] = true
						cutAt[e] = now
					default:
						if everRemoved[e] {
							readds++
						}
						if at, ok := sentAt[e]; ok && at == now && cutAt[e] == now {
							flaps++
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
				if s.Delivered == 0 || s.Dropped == 0 || refused == 0 || readds == 0 || flaps == 0 {
					t.Fatalf("degenerate script: %+v, refused %d, re-adds %d, same-instant flaps after a send %d",
						s, refused, readds, flaps)
				}
			})
		}
	}
}

// TestDropRuleTies pins the rule where the measure-zero cases decide:
// a message is carried iff the presence record it was sent on is still
// open when the delivery fires, which is DeliverAt < Until(Rec) because
// every removal is stamped at or before the time of any delivery that
// reads the record afterwards. Each tie is pinned twice, with a
// FixedDelay law:
// sender and receiver on one lane (the serial harness), and on two lanes
// with the flight crossing between them (the sharded one) — lane.deliver
// is the one predicate both harnesses ask.
func TestDropRuleTies(t *testing.T) {
	e := dyngraph.E(0, 1)
	const d = 0.5
	fixed := FixedDelay(d)
	send := func(r *laneRig) {
		r.net.Send(0, 1, 1)
		r.flush()
	}
	ties := []struct {
		name    string
		edges   []dyngraph.Edge
		script  func(r *laneRig)
		sentAt  float64
		carried bool
		present bool // the edge's state at the end
	}{
		// On the script engine, so at t = d the removal fires first — as it
		// always does on the sharded harness, where churn runs in the global
		// phase ahead of the shard events of the same instant. (A removal
		// event ordered after the delivery has not happened yet when the
		// flight ends, and cannot lose it.)
		{"removal at exactly DeliverAt is a drop", []dyngraph.Edge{e}, func(r *laneRig) {
			r.script.Schedule(d, "cut", func() { r.g.Remove(r.script.Now(), e) })
			send(r)
		}, 0, false, false},
		{"a send at the instant of Add is carried", nil, func(r *laneRig) {
			r.script.Schedule(0.3, "add+send", func() {
				r.g.Add(r.script.Now(), e)
				send(r)
			})
		}, 0.3, true, true},
		{"remove and re-add inside one flight is a drop", []dyngraph.Edge{e}, func(r *laneRig) {
			send(r)
			r.script.Schedule(0.2, "flap", func() {
				r.g.Remove(r.script.Now(), e)
				r.g.Add(r.script.Now(), e)
			})
		}, 0, false, true},
		{"send at t, then remove and re-add at t, is a drop", []dyngraph.Edge{e}, func(r *laneRig) {
			r.script.Schedule(0.3, "send+flap", func() {
				send(r)
				r.g.Remove(r.script.Now(), e)
				r.g.Add(r.script.Now(), e)
			})
		}, 0.3, false, true},
	}
	for _, tie := range ties {
		t.Run(tie.name, func(t *testing.T) {
			for lanes := 1; lanes <= 2; lanes++ {
				t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
					r := newLaneRig(lanes, 2, tie.edges, fixed, 1)
					tie.script(r)
					r.run(1)

					if r.g.Present(e) != tie.present {
						t.Fatalf("edge present = %v at the end, want %v", !tie.present, tie.present)
					}
					want := Stats{Sent: 1, Dropped: 1}
					if tie.carried {
						want = Stats{Sent: 1, Delivered: 1}
					}
					if s := r.net.Stats(); s != want || len(r.got) != int(want.Delivered) {
						t.Fatalf("stats = %+v, deliveries %v; want %+v", s, r.got, want)
					}
					rec, _ := r.g.Current(e) // a carried flight's record is still open
					m := Message{From: 0, To: 1, Rec: rec, Value: 1, DeliverAt: tie.sentAt + d}
					if tie.carried && r.got[0] != m {
						t.Fatalf("delivered %+v, want %+v", r.got[0], m)
					}
					// The flight ended on the receiver's engine; the sender's fired
					// nothing.
					if lanes == 2 && (r.lanes[0].Executed() != 0 || r.lanes[1].Executed() != 1) {
						t.Fatalf("lane engines fired %d and %d events, want 0 and 1",
							r.lanes[0].Executed(), r.lanes[1].Executed())
					}
				})
			}
		})
	}
}
