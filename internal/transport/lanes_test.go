package transport

import (
	"cmp"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// laneRig is a Network over `lanes` raw engines stepped in lock-step;
// with more than one lane the network is windowed, and every flight, a
// lane's own included, waits in an outbox until the rig flushes it
// through Flip and Merge. Nodes are block-partitioned over the lanes. script carries the test's own
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
	// crossed counts the flights the outboxes held.
	crossed int
	got     []Message
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
		r.net = NewSharded(r.lanes, r.g, delay, maxDelay, r.laneOf, "test.deliver")
	}
	for u := 0; u < n; u++ {
		r.net.SetHandler(u, func(m Message) { r.got = append(r.got, m) })
	}
	return r
}

// flush merges everything the outboxes hold, checking each flight sits
// in its sender lane's outbox toward its destination's lane; every engine
// is stopped.
func (r *laneRig) flush() {
	if !r.net.windowed {
		return
	}
	due := math.Inf(1)
	for src, l := range r.net.lanes {
		for dst, box := range l.out[r.net.cur] {
			for _, m := range box {
				if int(r.laneOf[m.From]) != src || int(r.laneOf[m.To]) != dst {
					panic(fmt.Sprintf("outbox (%d, %d) holds %+v", src, dst, m))
				}
				due = min(due, m.DeliverAt)
				r.crossed++
			}
		}
	}
	if got := r.net.Due(); got != due {
		panic(fmt.Sprintf("Due() = %v, outboxes hold %v", got, due))
	}
	r.net.Flip()
	for dst := range r.lanes {
		r.net.Merge(dst)
	}
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
// every flight must cross, a lane's own included, and every counter and
// every delivery event must sit on the lane that owns it — Sent and
// Refused with the sender, Delivered and Dropped (and the event) with the
// destination — since a lane's worker may write no other.
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
			local := 0
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
						if two.laneOf[u] == two.laneOf[v] {
							local++
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
			if s.Delivered == 0 || s.Dropped == 0 || s.Refused == 0 || local == 0 || uint64(local) == s.Sent {
				t.Fatalf("degenerate script: %+v, %d same-lane sends", s, local)
			}
			if uint64(two.crossed) != s.Sent {
				t.Fatalf("%d of %d flights crossed, want every one", two.crossed, s.Sent)
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
// is on another lane borrows a slot of the sender's arena while it draws
// its delay and waits in an outbox, and Merge takes one of the
// destination's; nothing allocates once warm.
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
		t.Errorf("steady-state cross-lane broadcast+merge+deliver allocated %v objects/op, want 0", allocs)
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

// TestNewShardedMisuse: no engine, or a lane map that does not cover
// the graph or names a lane that does not exist, is a wiring bug,
// reported at construction.
func TestNewShardedMisuse(t *testing.T) {
	two := []*des.Engine{des.NewEngine(), des.NewEngine()}
	cases := []struct {
		name    string
		engines []*des.Engine
		laneOf  []int32
		want    string
	}{
		{"no engine", nil, nil, "at least one engine"},
		{"short lane map", two, []int32{0, 1}, "lane map covers 2 of 3 nodes"},
		{"lane out of range", two, []int32{0, 1, 2}, "node 2 mapped to lane 2 of 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "transport: ") || !strings.Contains(msg, tc.want) {
					t.Fatalf("panic = %q, want a transport: message containing %q", msg, tc.want)
				}
			}()
			NewSharded(tc.engines, dyngraph.NewDynamic(3, nil), FixedDelay(0.1), 1, tc.laneOf, "test.deliver")
		})
	}
}

// TestParallelMergeOrder pins the one delivery order of a windowed
// network under des.ParallelEngine: a lane is handed the flights that
// share a DeliverAt in stable (From, To) order, whatever lane sent each
// and in whatever order the lanes sent them — equal keys keep their
// sender's send order — and so does every worker count. The lanes hold
// their nodes in reverse, so a later source lane holds lower senders, and
// every lane sends its batch from one event at time 0, so the whole batch
// merges at once.
func TestParallelMergeOrder(t *testing.T) {
	const n = 6
	run := func(workers int) [][]Message {
		p := des.NewParallelEngine(3, 0.5)
		engines := []*des.Engine{p.Shard(0), p.Shard(1), p.Shard(2)}
		laneOf := []int32{2, 2, 1, 1, 0, 0}
		// Value 3 is the last send of each pair yet lands first.
		delay := func(m *Message) float64 {
			if m.Value == 3 {
				return 0.75
			}
			return 1
		}
		net := NewSharded(engines, dyngraph.NewDynamic(n, dyngraph.Complete(n)), delay, 1, laneOf, "test.deliver")
		p.SetMail(net)
		got := make([][]Message, 3)
		for u := 0; u < n; u++ {
			net.SetHandler(u, func(m Message) { got[laneOf[m.To]] = append(got[laneOf[m.To]], m) })
		}
		for lane := 0; lane < 3; lane++ {
			p.Shard(lane).Schedule(0, "send", func() {
				for u := n - 1; u >= 0; u-- {
					if int(laneOf[u]) != lane {
						continue
					}
					for i := 0; i < 4; i++ {
						for v := n - 1; v >= 0; v-- {
							if v != u {
								net.Send(u, v, float64(i))
							}
						}
					}
				}
			})
		}
		p.Run(1.5, workers)
		return got
	}
	one := run(1)
	for lane, batch := range one {
		if len(batch) != 2*(n-1)*4 {
			t.Fatalf("lane %d was handed %d flights, want %d", lane, len(batch), 2*(n-1)*4)
		}
		last := map[des.Time]Message{}
		for _, b := range batch {
			if a, ok := last[b.DeliverAt]; ok && cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To), cmp.Compare(a.Value, b.Value)) > 0 {
				t.Fatalf("lane %d: %+v handed over before %+v", lane, a, b)
			}
			last[b.DeliverAt] = b
		}
	}
	if two := run(2); !reflect.DeepEqual(two, one) {
		t.Fatalf("two workers merged\n%v\none merged\n%v", two, one)
	}
}

// TestParallelLookaheadViolationPanics pins the machine-checked safety
// net: a flight whose delivery time is behind the destination lane's
// clock (a delay below the lookahead) panics at the merge rather than
// silently firing in the past — and the panic message names the
// destination lane and both clocks, since it is the one diagnostic a
// physics bug in a sharded run produces.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	p := des.NewParallelEngine(2, 0.5)
	net := NewSharded([]*des.Engine{p.Shard(0), p.Shard(1)}, dyngraph.NewDynamic(2, []dyngraph.Edge{dyngraph.E(0, 1)}),
		FixedDelay(1e-9), 1, []int32{0, 1}, "test.deliver")
	p.SetMail(net)
	// Lane 1 runs far into the window; lane 0's event then sends a flight
	// with a delay far below the lookahead.
	var tick func()
	en1 := p.Shard(1)
	tick = func() { en1.Schedule(en1.Now()+0.01, "busy", tick) }
	en1.Schedule(0, "busy", tick)
	p.Shard(0).Schedule(0, "bad", func() { net.Send(0, 1, 0) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want the diagnostic string", r)
		}
		if !strings.Contains(msg, "lookahead violated") ||
			!strings.Contains(msg, "flight into lane 1") {
			t.Fatalf("panic message %q lacks the lane/lookahead diagnostic", msg)
		}
	}()
	p.Run(1, 1)
}
