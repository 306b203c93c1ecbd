package transport

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// laneRig is a Network over `lanes` raw engines stepped in lock-step,
// with a test-local outbox as the cross hand-off. Nodes are
// block-partitioned over the lanes. script carries the test's own
// topology events and always fires first at an instant, as the sharded
// harness's global phase does: with one lane it is the lane's engine
// (schedule the event before the send), with more it is an engine of its
// own.
type laneRig struct {
	lanes  []*des.Engine
	script *des.Engine
	g      *dyngraph.Dynamic
	net    *Network
	laneOf []int32
	outbox []Message
	got    []Message
}

func newLaneRig(lanes, n int, edges []dyngraph.Edge, delay DelayFn, maxDelay float64) *laneRig {
	r := &laneRig{g: dyngraph.NewDynamic(n, edges), laneOf: make([]int32, n)}
	for i := 0; i < lanes; i++ {
		r.lanes = append(r.lanes, des.NewEngine())
	}
	for u := range r.laneOf {
		r.laneOf[u] = int32(u * lanes / n)
	}
	if lanes == 1 {
		r.script = r.lanes[0]
		r.net = New(r.lanes[0], r.g, delay, maxDelay)
	} else {
		r.script = des.NewEngine()
		r.net = NewSharded(r.lanes, r.g, delay, maxDelay, r.laneOf, "test.deliver",
			func(src, dst int, m *Message) {
				if int(r.laneOf[m.From]) != src || int(r.laneOf[m.To]) != dst || src == dst {
					panic(fmt.Sprintf("cross(%d, %d) for %+v", src, dst, *m))
				}
				r.outbox = append(r.outbox, *m)
			})
	}
	for u := 0; u < n; u++ {
		r.net.SetHandler(u, func(m Message) { r.got = append(r.got, m) })
	}
	return r
}

// flush accepts everything the outbox holds; every engine is stopped.
func (r *laneRig) flush() {
	for _, m := range r.outbox {
		r.net.Accept(m)
	}
	r.outbox = r.outbox[:0]
}

// run advances every engine to t (inclusive), one pending instant at a
// time: all engines are barriered at the instant, then fire their events
// there in fixed order, script first, the outbox flushed after each.
func (r *laneRig) run(t float64) {
	all := r.lanes
	if r.script != r.lanes[0] {
		all = append([]*des.Engine{r.script}, r.lanes...)
	}
	for {
		next := math.Inf(1)
		for _, en := range all {
			if at, ok := en.NextEventTime(); ok && at < next {
				next = at
			}
		}
		if next > t {
			break
		}
		for _, en := range all {
			en.AdvanceTo(next)
		}
		for _, en := range all {
			en.Run(next)
			r.flush()
		}
	}
	for _, en := range all {
		en.Run(t)
	}
}

// delays returns the harnesses' delay law, Delays over n senders on (0,
// maxDelay], as a DelayFn: the only kind of law whose draws do not
// depend on how lanes interleave.
func delays(n int, maxDelay float64, seed uint64) DelayFn {
	var d Delays
	d.Wire(0, maxDelay, n, des.NewRand(seed))
	return func(m *Message) float64 { return d.Draw(m.From) }
}

// TestLanesMatchOneLane runs one seeded add / remove / send / advance
// script on a one-lane Network and on a two-lane Network over two
// engines: same per-sender delay law, so the same messages must be
// delivered, field for field, with equal Stats. On the two-lane network
// every counter and every delivery event must also sit on the lane that
// owns it — Sent and Refused with the sender, Delivered and Dropped (and
// the event) with the destination — since a lane's worker may write no
// other.
func TestLanesMatchOneLane(t *testing.T) {
	const n, maxDelay = 6, 0.25
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			one := newLaneRig(1, n, dyngraph.Ring(n), delays(n, maxDelay, seed), maxDelay)
			two := newLaneRig(2, n, dyngraph.Ring(n), delays(n, maxDelay, seed), maxDelay)
			rnd := des.NewRand(seed * 977)
			// Per lane of the two-lane rig: accepted and refused sends by the
			// sender's lane, flights by the destination's.
			var sent, refused, flights [2]uint64
			crossed := 0
			now := 0.0
			for step := 0; step < 3000; step++ {
				now += rnd.Range(0.001, 0.08)
				one.run(now)
				two.run(now)
				u := rnd.Intn(n)
				v := (u + 1 + rnd.Intn(n-1)) % n
				e := dyngraph.E(u, v)
				switch k := rnd.Intn(100); {
				case k < 60:
					ok := one.net.Send(u, v, float64(step))
					if ok2 := two.net.Send(u, v, float64(step)); ok2 != ok {
						t.Fatalf("step %d: Send accepted %v on one lane, %v on two", step, ok, ok2)
					}
					two.flush()
					if ok {
						sent[two.laneOf[u]]++
						flights[two.laneOf[v]]++
						if two.laneOf[u] != two.laneOf[v] {
							crossed++
						}
					} else {
						refused[two.laneOf[u]]++
					}
				case one.g.Present(e):
					one.g.Remove(now, e)
					two.g.Remove(now, e)
				default:
					one.g.Add(now, e)
					two.g.Add(now, e)
				}
			}
			one.run(now + maxDelay)
			two.run(now + maxDelay)

			sortMessages(one.got)
			sortMessages(two.got)
			if len(one.got) != len(two.got) {
				t.Fatalf("delivered %d messages on one lane, %d on two", len(one.got), len(two.got))
			}
			for i := range one.got {
				if one.got[i] != two.got[i] {
					t.Fatalf("delivery %d: one lane %+v, two lanes %+v", i, one.got[i], two.got[i])
				}
			}
			s := two.net.Stats()
			if s != one.net.Stats() {
				t.Fatalf("stats: one lane %+v, two lanes %+v", one.net.Stats(), s)
			}
			if s.Sent != s.Delivered+s.Dropped {
				t.Fatalf("traffic not conserved after the last flight ended: %+v", s)
			}
			if s.Delivered == 0 || s.Dropped == 0 || s.Refused == 0 || crossed == 0 {
				t.Fatalf("degenerate script: %+v, %d cross-lane sends", s, crossed)
			}
			for k, l := range two.net.lanes {
				ls := l.stats
				if ls.Sent != sent[k] || ls.Refused != refused[k] || ls.Delivered+ls.Dropped != flights[k] {
					t.Errorf("lane %d stats = %+v, want Sent %d Refused %d Delivered+Dropped %d",
						k, ls, sent[k], refused[k], flights[k])
				}
				if got := two.lanes[k].Executed(); got != flights[k] {
					t.Errorf("lane %d's engine fired %d deliveries, want %d", k, got, flights[k])
				}
			}
		})
	}
}

// TestCrossLaneSendSteadyStateDoesNotAllocate: a send whose destination
// is on another lane borrows a slot of the sender's arena for the hand-off
// and Accept takes one of the destination's; neither allocates once warm.
func TestCrossLaneSendSteadyStateDoesNotAllocate(t *testing.T) {
	r := newLaneRig(2, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.1), 1)
	r.net.SetHandler(0, nil)
	r.net.SetHandler(1, nil)
	step := func() {
		r.net.Broadcast(0, 1)
		r.net.Broadcast(1, 0)
		r.flush()
		r.lanes[0].Run(r.lanes[0].Now() + 1)
		r.lanes[1].Run(r.lanes[1].Now() + 1)
	}
	for i := 0; i < 64; i++ {
		step()
	}
	warm := [2]int{len(r.net.lanes[0].flights), len(r.net.lanes[1].flights)}
	if allocs := testing.AllocsPerRun(200, step); allocs > 0 {
		t.Errorf("steady-state cross-lane broadcast+accept+deliver allocated %v objects/op, want 0", allocs)
	}
	// AllocsPerRun rounds down, so a slot leaked per send (amortized arena
	// growth) would read 0: the arenas themselves must not have grown.
	if now := [2]int{len(r.net.lanes[0].flights), len(r.net.lanes[1].flights)}; now != warm {
		t.Errorf("flight arenas grew from %v to %v slots in steady state", warm, now)
	}
	if s := r.net.Stats(); s.Delivered != s.Sent || s.Sent == 0 {
		t.Fatalf("stats = %+v, want every cross-lane message delivered", s)
	}
}

// TestNewShardedMisuse: a lane map that does not cover the graph, or
// names a lane that does not exist, and a multi-lane network without a
// cross hand-off are wiring bugs, reported at construction.
func TestNewShardedMisuse(t *testing.T) {
	cross := func(int, int, *Message) {}
	two := []*des.Engine{des.NewEngine(), des.NewEngine()}
	cases := []struct {
		name    string
		engines []*des.Engine
		laneOf  []int32
		cross   func(int, int, *Message)
		want    string
	}{
		{"no engine", nil, nil, nil, "at least one engine"},
		{"short lane map", two, []int32{0, 1}, cross, "lane map covers 2 of 3 nodes"},
		{"lane out of range", two, []int32{0, 1, 2}, cross, "node 2 mapped to lane 2 of 2"},
		{"nil cross", two, []int32{0, 0, 1}, nil, "needs a cross hand-off"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "transport: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %q, want a transport: message containing %q", msg, tc.want)
				}
			}()
			NewSharded(tc.engines, dyngraph.NewDynamic(3, nil), FixedDelay(0.1), 1, tc.laneOf, "test.deliver", tc.cross)
		})
	}
}
