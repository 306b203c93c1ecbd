package transport

import (
	"testing"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
)

// wireFaults arms the rig's network with a defaulted fault plan drawn
// from a fresh root.
func wireFaults(r *rig, spec fault.Spec, n int, maxDelay float64) {
	m := fault.NewMessages()
	root := des.NewRand(99)
	m.Wire(spec.WithDefaults(100), maxDelay, n, root)
	r.net.SetFaults(m)
}

// TestFaultDropCountsSentNotDropped pins the accounting contract: a
// fault-dropped message increments Sent (it was sent; the plan lost it)
// and the plan's Drops counter — never transport Dropped, which stays
// reserved for edge-removal losses.
func TestFaultDropCountsSentNotDropped(t *testing.T) {
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.1), 1)
	wireFaults(r, fault.Spec{Drop: 1}, 2, 1)
	for i := 0; i < 5; i++ {
		if !r.net.Send(0, 1, float64(i)) {
			t.Fatalf("send %d refused over a present edge", i)
		}
	}
	r.en.Run(1)
	if len(r.got[1]) != 0 {
		t.Fatalf("certain drop delivered %d messages", len(r.got[1]))
	}
	s := r.net.Stats()
	if s.Sent != 5 || s.Dropped != 0 || s.Delivered != 0 {
		t.Fatalf("stats = %+v, want Sent=5 Dropped=0 Delivered=0", s)
	}
	if fs := r.net.FaultStats(); fs.Drops != 5 || fs.Total() != 5 {
		t.Fatalf("fault stats = %+v, want 5 drops", fs)
	}
}

// TestFaultDupDeliversTwice: a duplicated message arrives twice, the
// copy with its own delay draw, and both deliveries count.
func TestFaultDupDeliversTwice(t *testing.T) {
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.1), 1)
	wireFaults(r, fault.Spec{Dup: 1}, 2, 1)
	r.net.Send(0, 1, 7)
	r.en.Run(1)
	if len(r.got[1]) != 2 {
		t.Fatalf("delivered %d, want the original plus one duplicate", len(r.got[1]))
	}
	for _, m := range r.got[1] {
		if m.Value != 7 {
			t.Fatalf("duplicate corrupted the value: %+v", m)
		}
	}
	s := r.net.Stats()
	if s.Sent != 2 || s.Delivered != 2 {
		t.Fatalf("stats = %+v, want both flights counted", s)
	}
	if fs := r.net.FaultStats(); fs.Dups != 1 {
		t.Fatalf("fault stats = %+v, want 1 dup", fs)
	}
}

// TestFaultSpikeExceedsMaxDelay: a spiked delivery bypasses the
// transport's delay validation and lands strictly beyond MaxDelay, at
// most SpikeFactor times it.
func TestFaultSpikeExceedsMaxDelay(t *testing.T) {
	const maxDelay = 0.25
	r := newRig(t, 2, []dyngraph.Edge{dyngraph.E(0, 1)}, FixedDelay(0.1), maxDelay)
	wireFaults(r, fault.Spec{DelaySpike: 1, SpikeFactor: 4}, 2, maxDelay)
	const sends = 20
	for i := 0; i < sends; i++ {
		r.net.Send(0, 1, float64(i))
	}
	r.en.Run(10)
	if len(r.got[1]) != sends {
		t.Fatalf("delivered %d, want %d", len(r.got[1]), sends)
	}
	for _, m := range r.got[1] {
		d := m.DeliverAt // sent at 0
		if d <= maxDelay || d > 4*maxDelay {
			t.Fatalf("spiked delay %v outside (%v, %v]", d, maxDelay, 4*maxDelay)
		}
	}
	if fs := r.net.FaultStats(); fs.DelaySpikes != sends {
		t.Fatalf("fault stats = %+v, want %d spikes", fs, sends)
	}
}

// TestResetClearsFaults: Reset disarms the plan and zeroes its
// counters, so a reused network starts its next run unfaulted.
func TestResetClearsFaults(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.1), 1)
	wireFaults(r, fault.Spec{Drop: 1}, 2, 1)
	r.net.Send(0, 1, 1)
	r.en.Reset()
	r.g.Reset(2, []dyngraph.Edge{e})
	r.net.Reset(FixedDelay(0.1), 1)
	if fs := r.net.FaultStats(); fs != (fault.Stats{}) {
		t.Fatalf("fault stats survived reset: %+v", fs)
	}
	r.net.Send(0, 1, 2)
	r.en.Run(1)
	if len(r.got[1]) != 1 || r.got[1][0].Value != 2 {
		t.Fatalf("post-reset send still faulted: %v", r.got[1])
	}
}

// TestResetWithFlightsPendingConservesAccounting pins Reset called
// while messages are in flight in both directions: the flights are
// discarded cleanly — never delivered, never counted — and accounting
// after the reset starts from zero and stays conserved
// (Sent = Delivered + Dropped once every flight has ended).
func TestResetWithFlightsPendingConservesAccounting(t *testing.T) {
	e := dyngraph.E(0, 1)
	r := newRig(t, 2, []dyngraph.Edge{e}, FixedDelay(0.5), 1)
	r.net.Send(0, 1, 1)
	r.net.Send(0, 1, 2)
	r.net.Send(0, 1, 3)
	r.net.Send(1, 0, 4)
	r.net.Send(1, 0, 5)
	r.en.Reset()
	r.g.Reset(2, []dyngraph.Edge{e})
	r.net.Reset(FixedDelay(0.5), 1)
	if s := r.net.Stats(); s != (Stats{}) {
		t.Fatalf("stats after mid-flight reset = %+v, want zero", s)
	}

	// Two fresh messages go up and the edge is cut mid-flight: the drop
	// counter must count exactly those two — nothing left over from the
	// five discarded before the reset.
	r.net.Send(0, 1, 6)
	r.net.Send(0, 1, 7)
	r.en.Schedule(0.2, "cut", func() { r.g.Remove(r.en.Now(), e) })
	r.en.Run(2)
	if n := len(r.got[0]) + len(r.got[1]); n != 0 {
		t.Fatalf("%d deliveries after reset and cut, want 0", n)
	}
	if s := r.net.Stats(); s.Sent != 2 || s.Dropped != 2 || s.Delivered != 0 {
		t.Fatalf("stats = %+v, want Sent=2 Dropped=2 Delivered=0", s)
	}
}
