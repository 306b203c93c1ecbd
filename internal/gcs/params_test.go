package gcs

import (
	"math"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
)

// TestMuDisabledSentinelSurvivesDefaults is the regression test for the
// WithDefaults clobbering bug: an explicit zero fast-rate boost (the
// jump-only regime) used to be inexpressible because Mu: 0 was silently
// rewritten to Mu: 1. The MuDisabled sentinel must survive WithDefaults
// (including a second application — sim applies defaults before New
// applies them again) with an effective boost of zero.
func TestMuDisabledSentinelSurvivesDefaults(t *testing.T) {
	p := Params{Mu: MuDisabled}.WithDefaults()
	if p.Mu >= 0 {
		t.Fatalf("MuDisabled rewritten to %v by WithDefaults", p.Mu)
	}
	if p.EffectiveMu() != 0 || p.FastRateEnabled() {
		t.Fatalf("sentinel did not disable the fast rate: effective=%v enabled=%v",
			p.EffectiveMu(), p.FastRateEnabled())
	}
	if again := p.WithDefaults(); again.Mu != p.Mu {
		t.Fatalf("WithDefaults not idempotent on the sentinel: %v -> %v", p.Mu, again.Mu)
	}
	// The zero value still means unset and keeps the default boost.
	if def := (Params{}).WithDefaults(); def.Mu != 1 {
		t.Fatalf("unset Mu defaulted to %v, want 1", def.Mu)
	}
}

// TestJumpOnlyRegimeNeverEntersFastMode pins the semantics of the
// sentinel end to end: with the fast rate disabled and a neighbor far
// ahead, the node must stay in the normal regime (no fast mode, no
// catch-up timers) and close the gap through jumps alone.
func TestJumpOnlyRegimeNeverEntersFastMode(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	p := Params{Rho: 0.01, BeaconEvery: 0.1, Kappa: 0.5, Mu: MuDisabled, JumpThreshold: 0}
	nd := New(0, hw, p, nil, nbrs{1})
	en.Schedule(1, "inject", func() { nd.OnMessage(1, 100) })
	en.Run(2)
	s := nd.Snap()
	if s.Fast {
		t.Fatal("fast mode entered with the fast rate disabled")
	}
	if s.Jumps != 1 || s.Logical < 100 {
		t.Fatalf("jump rule did not fire: %+v", s)
	}
	if en.Pending() != 0 {
		t.Fatalf("catch-up timers armed in the jump-only regime: %d events pending", en.Pending())
	}
}

// TestKappaDefaultFollowsSchedule pins the Section 5 parameter schedule:
// an unset Kappa is filled from KappaSchedule, not the old ad-hoc
// 4*(MaxDelay+BeaconEvery).
func TestKappaDefaultFollowsSchedule(t *testing.T) {
	p := Params{Rho: 0.02, MaxDelay: 0.05, BeaconEvery: 0.3, Mu: 2}.WithDefaults()
	want := KappaSchedule(0.02, 2, 0.05, 0.3)
	if p.Kappa != want {
		t.Fatalf("default Kappa = %v, want schedule value %v", p.Kappa, want)
	}
	// Explicit Kappa passes through untouched.
	if q := (Params{Kappa: 0.7}).WithDefaults(); q.Kappa != 0.7 {
		t.Fatalf("explicit Kappa rewritten to %v", q.Kappa)
	}
	// The schedule must exceed the pure staleness noise floor (mu = 0):
	// otherwise fast mode would trigger on a synchronized pair.
	if KappaSchedule(0.02, 2, 0.05, 0.3) <= KappaSchedule(0.02, 0, 0.05, 0.3) {
		t.Fatal("schedule not monotone in mu")
	}
}

// captureSender records discovery unicasts: the seam.Sender for tests
// that watch what a node sends without wiring a transport.
type captureSender struct {
	sentTo  int
	sentVal float64
	sends   int
}

func (c *captureSender) Broadcast(int, float64) int { return 0 }

func (c *captureSender) Send(_, to int, v float64) bool {
	c.sentTo, c.sentVal, c.sends = to, v, c.sends+1
	return true
}

// TestDiscoveryBeaconsImmediately checks OnEdgeAdded: the node unicasts
// its current logical value to the new neighbor right away, without
// waiting for the periodic beacon.
func TestDiscoveryBeaconsImmediately(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	cap := &captureSender{}
	nd := New(0, hw, Params{Rho: 0.01, BeaconEvery: 100}, cap, nil)
	en.Schedule(3, "edge", func() { nd.OnEdgeAdded(9) })
	en.Run(5)
	if cap.sends != 1 || cap.sentTo != 9 {
		t.Fatalf("discovery unicast: sends=%d to=%d", cap.sends, cap.sentTo)
	}
	if math.Abs(cap.sentVal-3) > 1e-9 {
		t.Fatalf("discovery beacon carried %v, want the logical value ~3", cap.sentVal)
	}
	if nd.Snap().Discoveries != 1 {
		t.Fatalf("discoveries = %d, want 1", nd.Snap().Discoveries)
	}
	// Without a sender the callback is still safe.
	bare := New(1, clock.New(en, 1), Params{}, nil, nil)
	bare.OnEdgeAdded(0)
	if bare.Snap().Discoveries != 1 {
		t.Fatal("OnEdgeAdded without a sender did not count")
	}
}
