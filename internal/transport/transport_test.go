package transport

import (
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// rig is a two-node-plus graph with a recording handler on every node.
type rig struct {
	en  *des.Engine
	g   *dyngraph.Dynamic
	net *Network
	got map[int][]Message
}

func newRig(t *testing.T, n int, edges []dyngraph.Edge, delay DelayFn, maxDelay float64) *rig {
	t.Helper()
	r := &rig{
		en:  des.NewEngine(),
		got: map[int][]Message{},
	}
	r.g = dyngraph.NewDynamic(n, edges)
	r.net = New(r.en, r.g, delay, maxDelay)
	for u := 0; u < n; u++ {
		u := u
		r.net.SetHandler(u, func(m Message) {
			r.got[u] = append(r.got[u], m)
		})
	}
	return r
}

func TestDeliveryWithinBound(t *testing.T) {
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, UniformDelay(0.25, des.NewRand(7)), 0.25)
	const sends = 200
	for i := 0; i < sends; i++ {
		if !r.net.Send(0, 1, float64(i)) {
			t.Fatalf("send %d refused over present edge", i)
		}
	}
	r.en.Run(10)
	if len(r.got[1]) != sends {
		t.Fatalf("delivered %d, want %d", len(r.got[1]), sends)
	}
	for _, m := range r.got[1] {
		d := m.DeliverAt - m.SentAt
		if d <= 0 || d > 0.25 {
			t.Fatalf("delay %v outside (0, 0.25]", d)
		}
	}
	if s := r.net.Stats(); s.Sent != sends || s.Delivered != sends || s.Dropped != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInFlightMessageDroppedOnEdgeRemoval(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.5), 1)
	r.net.Send(0, 1, 1)
	r.en.Schedule(0.2, "cut", func() { r.g.Remove(r.en.Now(), e) })
	// The loss is found out when the flight ends, not when the edge goes.
	r.en.Run(0.4)
	if s := r.net.Stats(); s.Sent != 1 || s.Delivered != 0 || s.Dropped != 0 {
		t.Fatalf("stats before DeliverAt = %+v, want the flight still pending", s)
	}
	r.en.Run(5)
	if len(r.got[1]) != 0 {
		t.Fatalf("message delivered despite edge removal: %v", r.got[1])
	}
	if s := r.net.Stats(); s.Sent != 1 || s.Delivered != 0 || s.Dropped != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReAddDoesNotResurrectMessage(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.5), 1)
	r.net.Send(0, 1, 13)
	r.en.Schedule(0.1, "cut", func() { r.g.Remove(r.en.Now(), e) })
	// Re-add well before the original delivery time of 0.5.
	r.en.Schedule(0.2, "heal", func() { r.g.Add(r.en.Now(), e) })
	r.en.Run(5)
	if len(r.got[1]) != 0 {
		t.Fatalf("dropped message resurrected by edge re-add: %v", r.got[1])
	}
	// The healed edge carries fresh traffic normally.
	r.net.Send(0, 1, 42)
	r.en.Run(10)
	if len(r.got[1]) != 1 || r.got[1][0].Value != 42 {
		t.Fatalf("fresh message not delivered after re-add: %v", r.got[1])
	}
	if s := r.net.Stats(); s.Dropped != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestFIFOForEqualDelays(t *testing.T) {
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.25), 1)
	for i := 0; i < 20; i++ {
		r.net.Send(0, 1, float64(i))
	}
	r.en.Run(5)
	if len(r.got[1]) != 20 {
		t.Fatalf("delivered %d, want 20", len(r.got[1]))
	}
	for i, m := range r.got[1] {
		if m.Value != float64(i) {
			t.Fatalf("delivery %d carried %v; FIFO order violated", i, m.Value)
		}
	}
}

func TestSendOverAbsentEdgeRefused(t *testing.T) {
	r := newRig(t, 3, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.1), 1)
	if r.net.Send(0, 2, 0) {
		t.Fatal("send over absent edge accepted")
	}
	if s := r.net.Stats(); s.Refused != 1 || s.Sent != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBroadcastReachesCurrentNeighborsOnly(t *testing.T) {
	// Star around hub 0 over 5 nodes, with edge {0,3} missing.
	edges := []dyngraph.Edge{dyngraph.E(0, 1), dyngraph.E(0, 2), dyngraph.E(0, 4)}
	r := newRig(t, 5, edges, FixedDelay(0.1), 1)
	if sent := r.net.Broadcast(0, 1); sent != 3 {
		t.Fatalf("broadcast sent %d, want 3", sent)
	}
	r.en.Run(1)
	for _, v := range []int{1, 2, 4} {
		if len(r.got[v]) != 1 {
			t.Fatalf("neighbor %d received %d messages, want 1", v, len(r.got[v]))
		}
	}
	if len(r.got[3]) != 0 {
		t.Fatal("non-neighbor 3 received a broadcast")
	}
	// Leaf broadcast goes only to the hub.
	if sent := r.net.Broadcast(1, 2); sent != 1 {
		t.Fatalf("leaf broadcast sent %d, want 1", sent)
	}
}

func TestPartialDropOnOneEdge(t *testing.T) {
	// Two edges from 0; only one is cut, only its traffic is lost.
	e1, e2 := dyngraph.E(0, 1), dyngraph.E(0, 2)
	r := newRig(t, 3, []dyngraph.Edge{e1, e2}, FixedDelay(0.5), 1)
	r.net.Send(0, 1, 1)
	r.net.Send(0, 2, 2)
	r.en.Schedule(0.2, "cut", func() { r.g.Remove(r.en.Now(), e1) })
	r.en.Run(5)
	if len(r.got[1]) != 0 {
		t.Fatal("message on removed edge delivered")
	}
	if len(r.got[2]) != 1 {
		t.Fatal("message on surviving edge lost")
	}
}

func TestFlightPoolReuseAfterDrops(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.5), 1)
	// Repeatedly fill the edge with in-flight traffic, cut it (dropping
	// everything), heal it, and send again: recycled flights must carry
	// fresh messages with no cross-talk from dropped ones.
	for round := 0; round < 5; round++ {
		base := r.en.Now()
		for i := 0; i < 10; i++ {
			r.net.Send(0, 1, float64(round*100+i))
		}
		r.en.Schedule(base+0.1, "cut", func() { r.g.Remove(r.en.Now(), e) })
		r.en.Schedule(base+0.2, "heal", func() { r.g.Add(r.en.Now(), e) })
		r.en.Run(base + 0.3)
	}
	r.en.Run(100)
	s := r.net.Stats()
	if s.Dropped != 50 || s.Delivered != 0 {
		t.Fatalf("stats = %+v, want 50 dropped and 0 delivered", s)
	}
	// Survivor traffic over the healed edge delivers the right values.
	for i := 0; i < 10; i++ {
		r.net.Send(0, 1, float64(1000+i))
	}
	r.en.Run(200)
	if len(r.got[1]) != 10 {
		t.Fatalf("delivered %d after heal, want 10", len(r.got[1]))
	}
	for i, m := range r.got[1] {
		if m.Value != float64(1000+i) {
			t.Fatalf("delivery %d carried %v, want %v", i, m.Value, 1000+i)
		}
	}
	if s := r.net.Stats(); s.Sent != 60 || s.Dropped != 50 || s.Delivered != 10 {
		t.Fatalf("stats = %+v, want every flight accounted for (60 = 50 + 10)", s)
	}
}

func TestEdgeDelayMaskOverridesBase(t *testing.T) {
	// Base delay 0.5; the mask charges 0.1, but only in the 0 -> 1
	// direction, so the reverse direction falls through to the base law.
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.5), 1)
	masked := FixedDelay(0.1)
	r.net.SetDelayMask(func(from, to int) DelayFn {
		if from == 0 && to == 1 {
			return masked
		}
		return nil
	})
	r.net.Send(0, 1, 1)
	r.net.Send(1, 0, 2)
	r.en.Run(0.2)
	if len(r.got[1]) != 1 {
		t.Fatalf("masked 0->1 message not delivered at masked delay: got %v", r.got[1])
	}
	if d := r.got[1][0].DeliverAt - r.got[1][0].SentAt; d != 0.1 {
		t.Fatalf("masked delay = %v, want 0.1", d)
	}
	if len(r.got[0]) != 0 {
		t.Fatalf("unmasked 1->0 message arrived before base delay: %v", r.got[0])
	}
	r.en.Run(1)
	if len(r.got[0]) != 1 {
		t.Fatalf("unmasked message never delivered: %v", r.got[0])
	}
	if d := r.got[0][0].DeliverAt - r.got[0][0].SentAt; d != 0.5 {
		t.Fatalf("unmasked delay = %v, want base 0.5", d)
	}
	// Removing the mask restores the base law in both directions.
	r.net.SetDelayMask(nil)
	r.net.Send(0, 1, 3)
	r.en.Run(5)
	if d := r.got[1][1].DeliverAt - r.got[1][1].SentAt; d != 0.5 {
		t.Fatalf("delay after mask removal = %v, want base 0.5", d)
	}
}

func TestMaskedInFlightMessageStillDroppedOnEdgeRemoval(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.1), 1)
	slow := FixedDelay(0.5)
	r.net.SetDelayMask(func(from, to int) DelayFn { return slow })
	r.net.Send(0, 1, 1)
	r.en.Schedule(0.2, "cut", func() { r.g.Remove(r.en.Now(), e) })
	r.en.Run(5)
	if len(r.got[1]) != 0 {
		t.Fatalf("masked message survived edge removal: %v", r.got[1])
	}
	if s := r.net.Stats(); s.Sent != 1 || s.Dropped != 1 || s.Delivered != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// The send/deliver hot path must not allocate once arenas are warm: this
// is the tentpole property the benchmark numbers rest on.
func TestSendSteadyStateDoesNotAllocate(t *testing.T) {
	en := des.NewEngine()
	g := dyngraph.NewDynamic(2, []dyngraph.Edge{dyngraph.E(0, 1)})
	net := New(en, g, FixedDelay(0.1), 1)
	// Warm up the flight arena and event pool.
	for i := 0; i < 64; i++ {
		net.Send(0, 1, float64(i))
	}
	en.Run(64)
	allocs := testing.AllocsPerRun(200, func() {
		net.Broadcast(0, 1)
		en.Run(en.Now() + 1)
	})
	if allocs > 0 {
		t.Errorf("steady-state broadcast+deliver allocated %v objects/op, want 0", allocs)
	}
}

// A delay mask sits on the same hot path, so masked sends must stay
// allocation-free too (the lower-bound scenario sends every message
// through its mask).
func TestMaskedSendSteadyStateDoesNotAllocate(t *testing.T) {
	en := des.NewEngine()
	g := dyngraph.NewDynamic(2, []dyngraph.Edge{dyngraph.E(0, 1)})
	net := New(en, g, FixedDelay(0.1), 1)
	masked := FixedDelay(0.05)
	net.SetDelayMask(func(from, to int) DelayFn {
		if from < to {
			return masked
		}
		return nil
	})
	for i := 0; i < 64; i++ {
		net.Send(0, 1, float64(i))
		net.Send(1, 0, float64(i))
	}
	en.Run(64)
	allocs := testing.AllocsPerRun(200, func() {
		net.Broadcast(0, 1)
		net.Broadcast(1, 0)
		en.Run(en.Now() + 1)
	})
	if allocs > 0 {
		t.Errorf("steady-state masked broadcast+deliver allocated %v objects/op, want 0", allocs)
	}
}

// TestHandlerSendDuringDeliveryGrowsArena: a handler that sends while
// its own delivery is being processed allocates fresh flights — growing
// (and reallocating) the flight arena under deliver's feet — and must
// still see its message intact, with every counter conserved.
func TestHandlerSendDuringDeliveryGrowsArena(t *testing.T) {
	const fanout = 9
	edges := []dyngraph.Edge{dyngraph.E(0, 1)}
	for v := 2; v < 2+fanout; v++ {
		edges = append(edges, dyngraph.E(1, v))
	}
	r := newRig(t, 2+fanout, edges, FixedDelay(0.25), 1)

	delivered := false
	r.net.SetHandler(1, func(m Message) {
		delivered = true
		// One recycled flight (this delivery's own) and eight fresh ones:
		// the arena grows past its pre-delivery capacity of one.
		for v := 2; v < 2+fanout; v++ {
			if !r.net.Send(1, v, 100+float64(v)) {
				t.Errorf("re-send to %d refused", v)
			}
		}
		if m.From != 0 || m.To != 1 || m.Value != 7 || m.SentAt != 0 || m.DeliverAt != 0.25 {
			t.Errorf("message corrupted during handler: %+v", m)
		}
	})
	r.net.Send(0, 1, 7)
	r.en.Run(5)

	if !delivered {
		t.Fatal("hub delivery never happened")
	}
	for v := 2; v < 2+fanout; v++ {
		if len(r.got[v]) != 1 || r.got[v][0].Value != 100+float64(v) {
			t.Fatalf("spoke %d got %v, want one delivery of %v", v, r.got[v], 100+float64(v))
		}
	}
	s := r.net.Stats()
	wantSent := uint64(1 + fanout)
	if s.Sent != wantSent || s.Delivered != wantSent || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want Sent = Delivered = %d, Dropped = 0", s, wantSent)
	}
}

// TestNetworkResetReusesState: after Reset the network behaves like a
// fresh one (clean stats, no traffic left over, mask removed) while
// reusing its arena, and handlers stay registered.
func TestNetworkResetReusesState(t *testing.T) {
	e := dyngraph.E(0, 1)
	en := des.NewEngine()
	g := dyngraph.NewDynamic(2, []dyngraph.Edge{e})
	net := New(en, g, FixedDelay(0.5), 1)
	var got []Message
	net.SetHandler(1, func(m Message) { got = append(got, m) })
	net.SetDelayMask(func(from, to int) DelayFn { return FixedDelay(0.9) })
	for i := 0; i < 8; i++ {
		net.Send(0, 1, float64(i))
	}
	// Reset mid-flight: the engine drops the delivery events, the network
	// forgets the flights.
	en.Reset()
	g.Reset(2, []dyngraph.Edge{e})
	net.Reset(FixedDelay(0.25), 1)
	if s := net.Stats(); s != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}
	net.Send(0, 1, 42)
	en.Run(1)
	if len(got) != 1 || got[0].Value != 42 {
		t.Fatalf("post-reset delivery = %v, want [42] and nothing from before the reset", got)
	}
	// The new base delay applies and the old mask is gone.
	if d := got[0].DeliverAt - got[0].SentAt; d != 0.25 {
		t.Fatalf("post-reset delay = %v, want fresh base 0.25", d)
	}
	if s := net.Stats(); s.Sent != 1 || s.Delivered != 1 {
		t.Fatalf("post-reset stats = %+v", s)
	}
}

// TestUniformDelayInMatchesUniformDelayAtZeroFloor pins the bit-identity
// contract: UniformDelayIn(0, max, r) must draw the exact sequence of
// UniformDelay(max, r) so serial configs are unperturbed by the floor
// knob.
func TestUniformDelayInMatchesUniformDelayAtZeroFloor(t *testing.T) {
	a := UniformDelay(0.25, des.NewRand(99))
	b := UniformDelayIn(0, 0.25, des.NewRand(99))
	for i := 0; i < 1000; i++ {
		da, db := a(nil), b(nil)
		if da != db {
			t.Fatalf("draw %d: UniformDelay %v != UniformDelayIn %v", i, da, db)
		}
	}
}

// TestUniformDelayInRespectsFloor pins that every draw lands in
// (minDelay, maxDelay].
func TestUniformDelayInRespectsFloor(t *testing.T) {
	fn := UniformDelayIn(0.1, 0.25, des.NewRand(5))
	for i := 0; i < 1000; i++ {
		d := fn(nil)
		if d <= 0.1 || d > 0.25 {
			t.Fatalf("draw %d: delay %v outside (0.1, 0.25]", i, d)
		}
	}
}
