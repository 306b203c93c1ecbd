package rt

import (
	"math"
	"testing"
	"time"

	"gcs/internal/des"
	"gcs/internal/gcs"
	"gcs/internal/sim"
)

// TestRealTimeSmoke runs a small ring against the real wall clock (no
// synctest bubble): half a second of wall time, loose assertions. The
// tight bound checks live in the synctest suite, where the clock is
// fake and the schedule deterministic; here we only require that the
// runtime actually runs — nodes beacon, messages flow, the report is
// internally consistent — under a real scheduler.
func TestRealTimeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time smoke test sleeps wall-clock time")
	}
	cfg := sim.Config{
		N:        8,
		Seed:     1,
		Horizon:  0.5,
		Rho:      0.01,
		MaxDelay: 0.01,
		Topology: sim.TopologySpec{Kind: sim.TopoRing},
	}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Samples < 3 {
		t.Fatalf("samples = %d, want at least t=0, one periodic, horizon", rep.Samples)
	}
	if rep.TotalBeacons == 0 || rep.Transport.Sent == 0 || rep.Transport.Delivered == 0 {
		t.Fatalf("no traffic: %+v", rep)
	}
	if rep.TotalMessages == 0 {
		t.Fatalf("nodes ingested nothing: %+v", rep)
	}
	if math.IsNaN(rep.MaxGlobalSkew) || rep.MaxGlobalSkew < 0 {
		t.Fatalf("degenerate skew %v", rep.MaxGlobalSkew)
	}
	// Real-time scheduling is fuzzy, so only a generous sanity bound.
	if rep.MaxGlobalSkew > 10*rep.Bound+1 {
		t.Fatalf("global skew %v wildly above bound %v", rep.MaxGlobalSkew, rep.Bound)
	}
	if rep.MinRateSeen < 1-cfg.Rho-1e-12 || rep.MaxRateSeen > 1+cfg.Rho+1e-12 {
		t.Fatalf("rates [%v, %v] outside the drift band", rep.MinRateSeen, rep.MaxRateSeen)
	}
	if rep.EventsExecuted == 0 {
		t.Fatal("no events executed")
	}
}

// TestSupportsRejectsDESOnlyFeatures pins the feature boundary between
// the harnesses, through both Supports and the New error path.
func TestSupportsRejectsDESOnlyFeatures(t *testing.T) {
	base := sim.Config{N: 4, Horizon: 1, Topology: sim.TopologySpec{Kind: sim.TopoRing}}
	for name, mut := range map[string]func(*sim.Config){
		"parallel":      func(c *sim.Config) { c.Parallel = true },
		"gradient":      func(c *sim.Config) { c.CheckGradient = true },
		"volatileChurn": func(c *sim.Config) { c.Churn = sim.ChurnSpec{Kind: sim.ChurnVolatile, Lifetime: 1, Absence: 1} },
	} {
		cfg := base
		mut(&cfg)
		if err := Supports(cfg); err == nil {
			t.Errorf("%s: Supports accepted a DES-only config", name)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: New accepted a DES-only config", name)
		}
	}
	if err := Supports(base); err != nil {
		t.Errorf("Supports rejected a plain ring: %v", err)
	}
}

// TestNewRejectsInvalidConfig pins that rt.New shares sim's validation
// boundary: malformed configs error, they do not panic.
func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(sim.Config{N: 0}); err == nil {
		t.Fatal("New accepted N=0")
	}
	if _, err := New(sim.Config{N: 8, Rho: 2}); err == nil {
		t.Fatal("New accepted Rho=2")
	}
}

// TestRemoveStarDeliversDiscoverRemove drives removeStar by hand: the
// runtime is wired but nothing is launched, and the test plays the host
// goroutines by draining the queues itself, so the order of events is
// fixed without a clock. A spoke held in fast mode by the old hub's
// estimate must leave it once the hub's OnEdgeRemoved notification has
// been drained; only edges actually removed notify, both endpoints each.
func TestRemoveStarDeliversDiscoverRemove(t *testing.T) {
	r, err := New(sim.Config{
		N: 4, Horizon: 1,
		Churn: sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
		// Jumps off: every reaction to a leading neighbor is fast mode.
		Node: gcs.Params{Kappa: 0.5, JumpThreshold: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	r.start = time.Now()
	r.done = make(chan struct{})
	r.wire(des.NewRand(1))
	t.Cleanup(func() {
		close(r.done)
		for _, h := range r.hosts {
			for _, tm := range h.clk.timers {
				tm.Stop()
			}
		}
	})
	drain := func() {
		for _, h := range r.hosts {
			for len(h.events) > 0 {
				(<-h.events)()
			}
		}
	}
	queued := func() (q [4]int) {
		for i, h := range r.hosts {
			q[i] = len(h.events)
		}
		return q
	}

	// Hub 0's star, overlapping the start of hub 1's (silent installs: no
	// discovery traffic to interleave with the notifications under test).
	for _, e := range [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}} {
		r.router.installEdge(e[0], e[1])
	}
	spoke := r.hosts[2].node
	spoke.OnMessage(0, 1000)
	if !spoke.Snap().Fast {
		t.Fatal("spoke not in fast mode with its hub far ahead")
	}

	r.removeStar(0, 1) // tears down {0,2} and {0,3}; {0,1} is the new hub's
	if got, want := queued(), [4]int{2, 0, 1, 1}; got != want {
		t.Fatalf("discover(remove) notifications queued per host = %v, want %v", got, want)
	}
	drain()
	// The regime is re-evaluated at the spoke's next event of any kind.
	spoke.OnMessage(1, 0.5)
	if spoke.Snap().Fast {
		t.Fatal("spoke still held in fast mode by the departed hub's estimate")
	}
	for _, h := range r.hosts {
		if err := h.node.CheckNeighborMax(); err != nil {
			t.Error(err)
		}
	}

	r.removeStar(0, 1) // nothing left to remove
	if got := queued(); got != [4]int{} {
		t.Fatalf("removing absent edges queued notifications: %v", got)
	}
	if _, removes := r.router.churnStats(); removes != 2 {
		t.Fatalf("router counted %d removals, want 2", removes)
	}
}
