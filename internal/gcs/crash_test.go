package gcs

import (
	"math"
	"testing"
)

// TestCrashStopsParticipation pins the crash semantics: a crashed node
// stops beaconing (its peer hears nothing new) and ignores everything
// it hears (its own counters freeze), while staying crash-safe against
// same-tick events already in flight.
func TestCrashStopsParticipation(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.1}
	en, nodes := pair(t, p, 1.05, 0.95, 0.01)
	nodes[0].Start(0)
	nodes[1].Start(0.05)
	en.Run(2)

	en.Schedule(2.5, "test.crash", func() { nodes[0].Crash() })
	en.Run(3)
	if !nodes[0].Down() || nodes[1].Down() {
		t.Fatalf("down flags wrong: %v %v", nodes[0].Down(), nodes[1].Down())
	}
	msgs0 := nodes[0].Snap().Messages
	msgs1 := nodes[1].Snap().Messages
	beacons0 := nodes[0].Snap().Beacons

	en.Run(6)
	if got := nodes[1].Snap().Messages; got != msgs1 {
		t.Fatalf("peer heard %d new messages from a crashed node", got-msgs1)
	}
	if got := nodes[0].Snap().Messages; got != msgs0 {
		t.Fatalf("crashed node ingested %d messages", got-msgs0)
	}
	if got := nodes[0].Snap().Beacons; got != beacons0 {
		t.Fatalf("crashed node emitted %d beacons", got-beacons0)
	}
	// Crash is idempotent.
	nodes[0].Crash()
	if !nodes[0].Down() {
		t.Fatal("second Crash flipped the node back up")
	}
}

// TestRecoverRejoinsAndPreservesCounters pins the recovery semantics:
// volatile sync state is lost, the node rejoins with an immediate
// discovery beacon and re-converges to its peer, and the cumulative
// counters survive (a crash is a fault, not a statistics reset).
func TestRecoverRejoinsAndPreservesCounters(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, nodes := pair(t, p, 1.05, 0.95, 0.01)
	nodes[0].Start(0)
	nodes[1].Start(0.05)
	en.Schedule(2, "test.crash", func() { nodes[1].Crash() })
	en.Run(5)
	preBeacons := nodes[1].Snap().Beacons
	preMsgs := nodes[1].Snap().Messages
	if preBeacons == 0 || preMsgs == 0 {
		t.Fatalf("degenerate pre-crash run: %+v", nodes[1].Snap())
	}

	en.Schedule(5.5, "test.recover", func() { nodes[1].Recover() })
	en.Run(12)
	if nodes[1].Down() {
		t.Fatal("node still down after Recover")
	}
	s := nodes[1].Snap()
	if s.Beacons <= preBeacons {
		t.Fatal("recovered node never beaconed again")
	}
	if s.Messages <= preMsgs {
		t.Fatal("recovered node never ingested traffic again")
	}
	// The recovered slow node must have caught back up to the fast one.
	skew := math.Abs(nodes[0].Logical() - nodes[1].Logical())
	bound := (1 + p.Rho) * (p.BeaconEvery/(1-p.Rho) + p.MaxDelay)
	if skew > bound {
		t.Fatalf("post-recovery skew %v exceeds steady-state bound %v", skew, bound)
	}
	// Recover is idempotent on a live node.
	before := nodes[1].Snap()
	nodes[1].Recover()
	if got := nodes[1].Snap(); got != before {
		t.Fatalf("Recover on a live node perturbed it: %+v vs %+v", got, before)
	}
}

// TestRecoverRestartsLogicalFromHardware pins the volatile-state loss:
// after recovery the logical clock restarts from the hardware reading,
// below the peer's logical time it had tracked before the crash.
func TestRecoverRestartsLogicalFromHardware(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, nodes := pair(t, p, 1.0, 1.0, 0.01)
	nodes[0].Start(0)
	nodes[1].Start(0)
	// Lift node 1 far ahead via an injected estimate, dragging node 0 up
	// with it through the max rule.
	en.Schedule(1, "test.inject", func() { nodes[1].OnMessage(9, 100) })
	en.Run(2)
	if nodes[0].Logical() < 50 {
		t.Fatalf("max rule never propagated the injected estimate: %v", nodes[0].Logical())
	}
	nodes[1].Crash()
	nodes[1].Recover()
	if l, h := nodes[1].Logical(), nodes[1].clk.Now(); math.Abs(l-h) > 1e-9 {
		t.Fatalf("recovered logical %v != hardware %v (volatile state survived)", l, h)
	}
}

// TestCrashBetweenSendAndDelivery pins the interleaving where the
// receiver crashes while a message to it is in flight: the transport
// still delivers (to a dead process — the edge never vanished), the node
// ignores it, and a later recovery does not resurrect it — the value is
// gone with the rest of the volatile state. Nodes are not started, so
// the only traffic is what the test injects.
func TestCrashBetweenSendAndDelivery(t *testing.T) {
	p := Params{Rho: 0.01, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, net, nodes := pairNet(t, p, 1, 1, 0.01)

	en.Schedule(1, "test.send", func() { net.Send(0, 1, 100) })
	// Crash strictly between the send (1.0) and its delivery (1.01).
	en.Schedule(1.005, "test.crash", func() { nodes[1].Crash() })
	en.Run(2)

	if st := net.Stats(); st.Sent != 1 || st.Delivered != 1 {
		t.Fatalf("message not delivered (the edge never vanished): %+v", st)
	}
	s := nodes[1].Snap()
	if s.Messages != 0 || s.Jumps != 0 {
		t.Fatalf("crashed node ingested the message: %+v", s)
	}
	if !math.IsInf(s.MaxEstimate, -1) {
		t.Fatalf("crashed node retained an estimate: %+v", s)
	}

	// Recovery must not resurrect it either: the logical clock restarts
	// from hardware and no estimate reappears.
	en.Schedule(2.5, "test.recover", func() { nodes[1].Recover() })
	en.Run(3)
	s = nodes[1].Snap()
	if s.Messages != 0 {
		t.Fatalf("recovery resurrected the dead-delivered message: %+v", s)
	}
	if math.Abs(s.Logical-s.Hardware) > 1e-9 {
		t.Fatalf("recovered logical %v != hardware %v", s.Logical, s.Hardware)
	}
}

// TestRecoverBeforeDelivery pins the complementary interleaving: crash
// and recovery both complete while the message is still in flight.
// Messages survive a receiver crash/recover cycle — only node state is
// volatile — so the recovered node ingests it, once, and jumps to it.
func TestRecoverBeforeDelivery(t *testing.T) {
	p := Params{Rho: 0.01, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, net, nodes := pairNet(t, p, 1, 1, 0.01)

	en.Schedule(1, "test.send", func() { net.Send(0, 1, 100) })
	en.Schedule(1.002, "test.crash", func() { nodes[1].Crash() })
	en.Schedule(1.005, "test.recover", func() { nodes[1].Recover() })
	en.Run(2)

	// The recovered node's rejoin beacons add their own traffic on top of
	// the injected message, so the transport total is only a floor.
	if st := net.Stats(); st.Delivered < 1 || st.Dropped != 0 {
		t.Fatalf("message lost in flight: %+v", st)
	}
	s := nodes[1].Snap()
	if s.Messages != 1 || s.Jumps != 1 {
		t.Fatalf("recovered node ingested %d messages with %d jumps, want 1 and 1", s.Messages, s.Jumps)
	}
	// Conservatively aged, so slightly below 100 plus elapsed credit.
	if s.Logical < 90 {
		t.Fatalf("recovered node never caught up to the message: L=%v", s.Logical)
	}
}
