package rt

import (
	"math"
	"slices"
	"testing"
	"time"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
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
		"gradient": func(c *sim.Config) { c.CheckGradient = true },
		// A valid sim config: rt would run its chains with uniform delays
		// and free rates, silently dropping the adversary.
		"lower bound": func(c *sim.Config) {
			c.Topology.Kind, c.LowerBoundEps = sim.TopoTwoChains, 1e-5
			if err := c.Validate(); err != nil {
				t.Fatalf("lower bound: the adversary config is invalid: %v", err)
			}
		},
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
	// Shards and workers are execution, so the sharding sugar is no
	// DES-only feature: rt takes the config, with its MinDelay default.
	sharded := base
	sharded.Parallel, sharded.Shards, sharded.Workers = true, 2, 2
	if err := Supports(sharded); err != nil {
		t.Errorf("Supports rejected a sharded ring: %v", err)
	}
	if r, err := New(sharded); err != nil {
		t.Errorf("New rejected a sharded ring: %v", err)
	} else if got, want := r.cfg.MinDelay, sharded.WithDefaults().MaxDelay/4; got != want || want == 0 {
		t.Errorf("sharded ring runs with MinDelay %v, want the sugar's default %v", got, want)
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

// wiredRuntime wires cfg without launching anything — no node goroutine,
// no timer — so a test can play the churn timers and the host goroutines
// itself: it steps r.churn by hand and drains the queues, which fixes the
// order of events without a clock. Delays of 5 to 10 s keep the beacons a
// drained discover(add) sends out of the queues meanwhile.
func wiredRuntime(t *testing.T, cfg sim.Config) *Runtime {
	t.Helper()
	cfg.MinDelay, cfg.MaxDelay = 5, 10
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.start = time.Now()
	r.done = make(chan struct{})
	r.wire(des.NewRand(1))
	r.launched = true
	t.Cleanup(func() {
		close(r.done)
		for _, h := range r.hosts {
			stopTimer(h.clockT)
		}
	})
	return r
}

// queued returns each host's queue length.
func queued(r *Runtime) []int {
	q := make([]int, len(r.hosts))
	for i, h := range r.hosts {
		q[i] = len(h.events)
	}
	return q
}

// drain runs every queued event, host by host.
func drain(r *Runtime) {
	for _, h := range r.hosts {
		for len(h.events) > 0 {
			(<-h.events)()
		}
	}
}

// TestChurnStepsRelayDiscover steps the churn chain by hand against the
// router: only edges that actually change notify, both endpoints once
// each, and a spoke held in fast mode by the old hub's estimate leaves it
// once the hub's discover(remove) has been drained.
func TestChurnStepsRelayDiscover(t *testing.T) {
	t.Run("RotatingStar", func(t *testing.T) {
		r := wiredRuntime(t, sim.Config{
			N: 4, Horizon: 1,
			Churn: sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
			// Jumps off: every reaction to a leading neighbor is fast mode.
			Node: gcs.Params{Kappa: 0.5, JumpThreshold: math.Inf(1)},
		})
		expect := func(what string, want ...int) {
			t.Helper()
			if got := queued(r); !slices.Equal(got, want) {
				t.Fatalf("%s: notifications queued per host = %v, want %v", what, got, want)
			}
			drain(r)
		}
		rotate := r.churn.Start(&r.cfg, des.NewRand(1), nil, r.router)[0]
		expect("hub 0's star", 3, 1, 1, 1)
		remove, _ := r.churn.Step(rotate.Arg, 1, r.router)
		expect("hub 1's star, sharing {0,1}", 0, 2, 1, 1)

		spoke := r.hosts[2].node
		spoke.OnMessage(0, 1000)
		if !spoke.Snap().Fast {
			t.Fatal("spoke not in fast mode with its hub far ahead")
		}
		r.churn.Step(remove.Arg, 1.25, r.router)
		expect("hub 0's star torn down but {0,1}", 2, 0, 1, 1)
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

		r.churn.Step(remove.Arg, 1.25, r.router)
		expect("nothing left to remove", 0, 0, 0, 0)
		if adds, removes := r.router.g.Stats(); adds != 5 || removes != 2 {
			t.Fatalf("router counted %d adds, %d removals; want 5, 2", adds, removes)
		}
	})
	t.Run("Volatile", func(t *testing.T) {
		r := wiredRuntime(t, sim.Config{
			N: 8, Horizon: 1, Topology: sim.TopologySpec{Kind: sim.TopoRing},
			Churn: sim.ChurnSpec{Kind: sim.ChurnVolatile, Lifetime: 1, Absence: 1, ExtraEdges: 2},
		})
		first := r.churn.Start(&r.cfg, des.NewRand(1), r.cfg.Topology.Edges(r.cfg.N), r.router)
		if len(first) != 2 || slices.Max(queued(r)) != 0 {
			t.Fatalf("Start: %d events, queues %v; want 2 and no notification", len(first), queued(r))
		}
		// notified drains and returns the hosts that had one notification
		// queued, failing on any with more.
		notified := func() (ids []int) {
			t.Helper()
			for i, q := range queued(r) {
				if q > 1 {
					t.Fatalf("host %d queued %d notifications", i, q)
				}
				if q == 1 {
					ids = append(ids, i)
				}
			}
			drain(r)
			return ids
		}
		for _, add := range first {
			remove, _ := r.churn.Step(add.Arg, 0, r.router)
			ends := notified()
			if len(ends) != 2 || !slices.Contains(r.router.AppendNeighbors(ends[0], nil), ends[1]) {
				t.Fatalf("add notified hosts %v, want both endpoints of a new edge", ends)
			}
			r.churn.Step(add.Arg, 0, r.router)
			if got := notified(); got != nil {
				t.Fatalf("adding a present edge notified hosts %v", got)
			}
			r.churn.Step(remove.Arg, 0, r.router)
			if got := notified(); !slices.Equal(got, ends) {
				t.Fatalf("remove notified hosts %v, want %v", got, ends)
			}
			r.churn.Step(remove.Arg, 0, r.router)
			if got := notified(); got != nil {
				t.Fatalf("removing an absent edge notified hosts %v", got)
			}
		}
		if adds, removes := r.router.g.Stats(); adds != 2 || removes != 2 {
			t.Fatalf("router counted %d adds, %d removals; want 2, 2", adds, removes)
		}
	})
}

// TestDeliveryNeedsEdgeThroughoutFlight pins the router's loss rule, the
// DES transports': a message is delivered iff the presence record it was
// sent on is still open when it arrives. One whose edge is removed and
// re-added while it is in flight is dropped, even though the edge is
// present again when it arrives, while one sent after the re-add is
// delivered.
func TestDeliveryNeedsEdgeThroughoutFlight(t *testing.T) {
	r := wiredRuntime(t, sim.Config{N: 4, Horizon: 1, Topology: sim.TopologySpec{Kind: sim.TopoRing}})
	e := dyngraph.E(0, 1)
	sentOn, _ := r.router.g.Current(e)
	r.router.Remove(0, e)
	r.router.Add(0, e)
	if got := queued(r); !slices.Equal(got, []int{2, 2, 0, 0}) {
		t.Fatalf("flap queued %v discover notifications, want remove and add at both ends", got)
	}
	drain(r)

	r.router.deliver(0, 1, sentOn, 7)
	if st := r.router.Stats(); st.Dropped != 1 || st.Delivered != 0 {
		t.Fatalf("in-flight flap: dropped %d, delivered %d; want 1, 0", st.Dropped, st.Delivered)
	}
	reopened, _ := r.router.g.Current(e)
	r.router.deliver(0, 1, reopened, 7)
	if st := r.router.Stats(); st.Dropped != 1 || st.Delivered != 1 {
		t.Fatalf("send after the flap: dropped %d, delivered %d; want 1, 1", st.Dropped, st.Delivered)
	}
	if got := r.hosts[1].node.Snap().Messages; got != 1 {
		t.Fatalf("receiver ingested %d messages, want 1", got)
	}
}
