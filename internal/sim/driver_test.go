package sim

import (
	"math"
	"slices"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// The reference drivers: each installs closure events that call SetRate
// on one clock, the most direct rendering of the paper's Section 3.3
// adversary, which may vary each clock's rate arbitrarily within
// [1-rho, 1+rho]. DriverState re-implements them as a step function over
// reseedable per-node state; TestDriverStateMatchesClockDrivers pins the
// two together.
type refDriver interface {
	Install(en *des.Engine, c *clock.HardwareClock)
}

// ConstantRate keeps the clock at a fixed rate forever.
type ConstantRate struct {
	Rate float64
}

func (d ConstantRate) Install(en *des.Engine, c *clock.HardwareClock) {
	c.SetRate(d.Rate)
}

// RandomWalk re-draws the clock rate uniformly in [1-rho, 1+rho] every
// Interval of real time (jittered by up to half an interval so that
// different clocks drift out of phase). It models benign environmental
// drift: temperature-driven oscillator wander.
type RandomWalk struct {
	Rho      float64
	Interval des.Time
	Rand     *des.Rand
}

func (d RandomWalk) Install(en *des.Engine, c *clock.HardwareClock) {
	r := d.Rand
	c.SetRate(r.Range(1-d.Rho, 1+d.Rho))
	var step func()
	step = func() {
		c.SetRate(r.Range(1-d.Rho, 1+d.Rho))
		en.Schedule(en.Now()+d.Interval*(0.5+r.Float64()), "clock.walk", step)
	}
	en.Schedule(en.Now()+d.Interval*(0.5+r.Float64()), "clock.walk", step)
}

// BangBang alternates between the two extreme legal rates 1-rho and
// 1+rho every Interval. It is the worst benign drift pattern for skew
// accumulation between a pair of anti-phased clocks.
type BangBang struct {
	Rho      float64
	Interval des.Time
	// StartHigh selects the initial extreme.
	StartHigh bool
}

func (d BangBang) Install(en *des.Engine, c *clock.HardwareClock) {
	high := d.StartHigh
	set := func() {
		if high {
			c.SetRate(1 + d.Rho)
		} else {
			c.SetRate(1 - d.Rho)
		}
		high = !high
	}
	set()
	var flip func()
	flip = func() {
		set()
		en.Schedule(en.Now()+d.Interval, "clock.bang", flip)
	}
	en.Schedule(en.Now()+d.Interval, "clock.bang", flip)
}

func TestRandomWalkStaysInBounds(t *testing.T) {
	en := des.NewEngine()
	c := clock.New(en, 1.0)
	RandomWalk{Rho: 0.05, Interval: 1, Rand: des.NewRand(3)}.Install(en, c)
	en.Run(200)
	min, max := c.RateBoundsSeen()
	if min < 0.95 || max > 1.05 {
		t.Fatalf("random walk escaped drift bounds: [%v, %v]", min, max)
	}
	// The clock must have advanced roughly like real time.
	h := c.Now()
	if h < 200*0.95 || h > 200*1.05 {
		t.Fatalf("H(200) = %v outside drift envelope", h)
	}
}

func TestBangBang(t *testing.T) {
	en := des.NewEngine()
	a := clock.New(en, 1.0)
	b := clock.New(en, 1.0)
	BangBang{Rho: 0.1, Interval: 5, StartHigh: true}.Install(en, a)
	BangBang{Rho: 0.1, Interval: 5, StartHigh: false}.Install(en, b)
	en.Run(5)
	// After one interval the clocks are 2*rho*interval apart.
	gap := a.Now() - b.Now()
	if math.Abs(gap-1.0) > 1e-9 {
		t.Fatalf("gap after 5s = %v, want 1.0", gap)
	}
	en.Run(10)
	// Second interval reverses the rates; gap returns to 0.
	gap = a.Now() - b.Now()
	if math.Abs(gap) > 1e-9 {
		t.Fatalf("gap after 10s = %v, want 0", gap)
	}
}

// TestDriverStateMatchesClockDrivers pins the one production rate
// driver (DriverState, stepped by the harness core on the serial and
// sharded engines and by internal/rt) against the reference drivers
// above: both must produce identical rate trajectories from the same
// forked streams. The harness re-implements the drivers as a step
// function over reseedable per-node state so rewiring allocates nothing
// and every harness can schedule it its own way; this test is what
// keeps it from silently diverging from the reference (a changed jitter
// formula or draw order on either side fails here).
func TestDriverStateMatchesClockDrivers(t *testing.T) {
	cases := []struct {
		name string
		spec DriverSpec
		ref  func(node int, rho float64, driveRand *des.Rand) refDriver
	}{
		{"RandomWalk", DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
			func(node int, rho float64, driveRand *des.Rand) refDriver {
				return RandomWalk{Rho: rho, Interval: 0.5, Rand: forkPath(driveRand, uint64(node))}
			}},
		{"BangBang", DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			func(node int, rho float64, driveRand *des.Rand) refDriver {
				return BangBang{Rho: rho, Interval: 0.7, StartHigh: node%2 == 0}
			}},
		{"Constant", DriverSpec{Kind: DriveConstant, Interval: 1},
			func(node int, rho float64, driveRand *des.Rand) refDriver {
				return ConstantRate{Rate: 1}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				N: 4, Seed: 9, Horizon: 10, Rho: 0.02, MaxDelay: 0.01,
				Topology: TopologySpec{Kind: TopoRing},
				Driver:   tc.spec,
			}
			s := New(cfg)
			pcfg := cfg
			pcfg.Parallel, pcfg.Shards = true, 2
			ps := New(pcfg)

			// Reference wiring: bare clocks driven by the reference drivers
			// from the same per-node streams the harness forks (root seed ->
			// fork 0xd81fe -> fork node).
			en := des.NewEngine()
			driveRand := forkPath(des.NewRand(cfg.Seed), 0xd81fe)
			ref := make([]*clock.HardwareClock, cfg.N)
			for i := 0; i < cfg.N; i++ {
				ref[i] = clock.New(en, 1)
				tc.ref(i, cfg.Rho, driveRand).Install(en, ref[i])
			}

			// Readings integrate the rate trajectory from the driver events,
			// so comparing them at a grid of times compares the whole
			// trajectory.
			for at := 0.25; at <= cfg.Horizon; at += 0.25 {
				s.Advance(at)
				ps.P.Run(at, 1)
				en.Run(at)
				for i := 0; i < cfg.N; i++ {
					want := ref[i].Now()
					if got := s.Clocks[i].Now(); got != want {
						t.Fatalf("t=%v node %d: serial harness reading %v, reference reading %v", at, i, got, want)
					}
					if got := ps.Clocks[i].Now(); got != want {
						t.Fatalf("t=%v node %d: sharded harness reading %v, reference reading %v", at, i, got, want)
					}
				}
			}
			for i := 0; i < cfg.N; i++ {
				wmn, wmx := ref[i].RateBoundsSeen()
				for name, clocks := range map[string][]*clock.HardwareClock{"serial": s.Clocks, "sharded": ps.Clocks} {
					if gmn, gmx := clocks[i].RateBoundsSeen(); gmn != wmn || gmx != wmx {
						t.Fatalf("node %d rate bounds diverged: %s harness [%v,%v], reference [%v,%v]",
							i, name, gmn, gmx, wmn, wmx)
					}
				}
			}
		})
	}
}

// TestDriverStateSteps checks the step function alone, with no engine:
// from a given seed the first steps' (rate, delay) pairs are exactly the
// draws the reference drivers make, in their order.
func TestDriverStateSteps(t *testing.T) {
	const rho, interval, node, steps = 0.02, 0.5, 3, 6
	driveRand := forkPath(des.NewRand(9), 0xd81fe)

	t.Run("RandomWalk", func(t *testing.T) {
		var d DriverState
		d.Start(node, driveRand)
		want := forkPath(driveRand, node)
		for k := 0; k < steps; k++ {
			rate, next := d.Step(DriverSpec{Kind: DriveRandomWalk, Interval: interval}, rho)
			wantRate := want.Range(1-rho, 1+rho)
			wantNext := interval * (0.5 + want.Float64())
			if rate != wantRate || next != wantNext {
				t.Fatalf("step %d: got (%v, %v), want (%v, %v)", k, rate, next, wantRate, wantNext)
			}
		}
	})
	t.Run("BangBang", func(t *testing.T) {
		for _, node := range []int{2, 3} {
			var d DriverState
			d.Start(node, driveRand)
			high := node%2 == 0
			for k := 0; k < steps; k++ {
				rate, next := d.Step(DriverSpec{Kind: DriveBangBang, Interval: interval}, rho)
				wantRate := 1 - rho
				if high {
					wantRate = 1 + rho
				}
				if rate != wantRate || next != interval {
					t.Fatalf("node %d step %d: got (%v, %v), want (%v, %v)", node, k, rate, next, wantRate, interval)
				}
				high = !high
			}
		}
	})
	t.Run("Constant", func(t *testing.T) {
		var d DriverState
		d.Start(node, driveRand)
		if rate, next := d.Step(DriverSpec{Kind: DriveConstant, Interval: interval}, rho); rate != 1 || next >= 0 {
			t.Fatalf("got (%v, %v), want rate 1 and no next step", rate, next)
		}
	})
}

// TestLayeredRateMatchesEquationOne checks the Eq. (1) chains the
// lower-bound wiring arms: on a time grid spanning every switch, each
// node's hardware clock reads H(t) = t + min(rho*t, MaxDelay*dist), dist
// being its flexible distance from the reference node.
func TestLayeredRateMatchesEquationOne(t *testing.T) {
	cfg := lowerBoundBase(1)
	cfg.N = 32
	cfg = cfg.WithDefaults()
	s := New(cfg)
	for at := 0.5; at <= lowerBoundHorizon(cfg); at += 0.5 {
		s.Advance(at)
		for v := range cfg.N {
			d := flexibleDist(cfg.N, v)
			want := at + math.Min(cfg.Rho*at, cfg.MaxDelay*float64(d))
			if got := s.Clocks[v].Now(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("node %d (dist %d): H(%v) = %v, want %v", v, d, at, got, want)
			}
		}
	}
}

// edgeLog is an EdgeWriter recording every change a churn step makes.
type edgeLog []string

func (l *edgeLog) Add(_ float64, e dyngraph.Edge)    { *l = append(*l, "+"+e.String()) }
func (l *edgeLog) Remove(_ float64, e dyngraph.Edge) { *l = append(*l, "-"+e.String()) }

// TestChurnStateSteps checks the churn chain alone, with no engine: its
// edge changes, and the delay, label and arg of every event that follows.
func TestChurnStateSteps(t *testing.T) {
	t.Run("Volatile", func(t *testing.T) {
		const lifetime, absence, toggles = 1.5, 1.0, 6
		cfg := Config{N: 12, Seed: 9, Topology: TopologySpec{Kind: TopoRing},
			Churn: ChurnSpec{Kind: ChurnVolatile, Lifetime: lifetime, Absence: absence, ExtraEdges: 4}}
		root := des.NewRand(cfg.Seed)
		backbone := cfg.Topology.Edges(cfg.N)
		var c ChurnState
		var g edgeLog
		first := c.Start(&cfg, root, backbone, &g)
		if len(first) != 4 || len(g) != 0 {
			t.Fatalf("Start: %d events, edge changes %v; want 4 and none", len(first), g)
		}
		for i, ev := range first {
			// Candidate i toggles absent -> present -> absent ..., drawing
			// Exp(Absence) then Exp(Lifetime) from root's 0xc400 -> i stream.
			want := forkPath(root, 0xc400, uint64(i))
			var edge string
			for k := 0; k < toggles; k++ {
				var wantEv ChurnEvent
				op := "+"
				if k%2 == 0 {
					wantEv = ChurnEvent{want.Exp(absence), "churn.add", uint64(i)<<1 | 1}
				} else {
					wantEv, op = ChurnEvent{want.Exp(lifetime), "churn.remove", uint64(i) << 1}, "-"
				}
				if ev != wantEv {
					t.Fatalf("candidate %d toggle %d: event %+v, want %+v", i, k, ev, wantEv)
				}
				g = g[:0]
				var second ChurnEvent
				ev, second = c.Step(ev.Arg, 0, &g)
				if second.After >= 0 || len(g) != 1 {
					t.Fatalf("candidate %d toggle %d: second event %+v, changes %v; want none and one", i, k, second, g)
				}
				if k == 0 {
					edge = g[0][1:]
					if slices.ContainsFunc(backbone, func(e dyngraph.Edge) bool { return e.String() == edge }) {
						t.Fatalf("candidate %d is backbone edge %s", i, edge)
					}
				}
				if g[0] != op+edge {
					t.Fatalf("candidate %d toggle %d: change %s, want %s", i, k, g[0], op+edge)
				}
			}
		}
	})
	t.Run("RotatingStar", func(t *testing.T) {
		const n, period, overlap = 5, 2.0, 0.5
		cfg := Config{N: n, Churn: ChurnSpec{Kind: ChurnRotatingStar, Period: period, Overlap: overlap}}
		star := func(op string, hub, keep int) (out []string) {
			for v := 0; v < n; v++ {
				if v != hub && v != keep {
					out = append(out, op+dyngraph.E(hub, v).String())
				}
			}
			return out
		}
		rotate := ChurnEvent{period, "churn.star.rotate", 1}
		var c ChurnState
		var g edgeLog
		first := c.Start(&cfg, des.NewRand(1), nil, &g)
		if !slices.Equal(first, []ChurnEvent{rotate}) || !slices.Equal(g, star("+", 0, -1)) {
			t.Fatalf("Start: events %+v, changes %v; want hub 0's star and one rotation", first, g)
		}
		for k := 1; k <= 2*n; k++ {
			old, hub := (k-1)%n, k%n
			g = g[:0]
			remove, next := c.Step(rotate.Arg, 0, &g)
			if !slices.Equal(g, star("+", hub, -1)) {
				t.Fatalf("rotation %d: changes %v, want hub %d's star", k, g, hub)
			}
			if want := (ChurnEvent{overlap, "churn.star.remove", uint64(old) << 1}); remove != want || next != rotate {
				t.Fatalf("rotation %d: events %+v, %+v; want %+v, %+v", k, remove, next, want, rotate)
			}
			// The removal keeps the edge the old star shares with the new hub's.
			g = g[:0]
			if a, b := c.Step(remove.Arg, 0, &g); a.After >= 0 || b.After >= 0 {
				t.Fatalf("rotation %d: removal scheduled %+v, %+v", k, a, b)
			}
			if !slices.Equal(g, star("-", old, hub)) {
				t.Fatalf("rotation %d: removal changes %v, want hub %d's star but %v", k, g, old, dyngraph.E(old, hub))
			}
		}
	})
}

// forkPath returns the stream r.ForkInto derives along ids, one fork per
// id, in a fresh generator; r is left untouched.
func forkPath(r *des.Rand, ids ...uint64) *des.Rand {
	out := *r
	for _, id := range ids {
		out.ForkInto(id, &out)
	}
	return &out
}
