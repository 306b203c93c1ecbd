package gcs

import (
	"math"
	"testing"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/seam"
	"gcs/internal/transport"
)

// pair wires two nodes over a single static edge with a fixed-delay
// transport, returning the engine and both nodes. The network and graph
// plug straight into the seam (transport.Network is the seam.Sender,
// dyngraph.Dynamic the seam.Topology).
func pair(t *testing.T, p Params, rate0, rate1, delay float64) (*des.Engine, []*Node) {
	t.Helper()
	en, _, nodes := pairNet(t, p, rate0, rate1, delay)
	return en, nodes
}

// pairNet is pair that also returns the transport, for tests that
// inject their own traffic.
func pairNet(t *testing.T, p Params, rate0, rate1, delay float64) (*des.Engine, *transport.Network, []*Node) {
	t.Helper()
	en := des.NewEngine()
	g := dyngraph.NewDynamic(2, []dyngraph.Edge{dyngraph.E(0, 1)})
	net := transport.New(en, g, func(*transport.Message) float64 { return delay }, delay)
	nodes := make([]*Node, 2)
	for i, rate := range []float64{rate0, rate1} {
		i := i
		hw := clock.New(en, rate)
		nodes[i] = New(i, hw, p, net, g)
		net.SetHandler(i, func(m transport.Message) {
			nodes[i].OnMessage(m.From, m.Value)
		})
	}
	return en, net, nodes
}

// solo builds an isolated node (no transport) on a fresh engine.
func solo(p Params) (*des.Engine, *clock.HardwareClock, *Node) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	return en, hw, New(0, hw, p, nil, nil)
}

// nbrs is a fixed neighbor set: the seam.Topology for isolated unit
// tests that need a neighborhood without a graph.
type nbrs []int

func (s nbrs) AppendNeighbors(_ int, buf []int) []int { return append(buf, s...) }

func TestTwoNodesConvergeUnderMaxRule(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, nodes := pair(t, p, 1.05, 0.95, 0.01)
	nodes[0].Start(0)
	nodes[1].Start(0.05)
	en.Run(20)
	l0, l1 := nodes[0].Logical(), nodes[1].Logical()
	skew := math.Abs(l0 - l1)
	// One beacon interval of real time plus a delay bounds the staleness;
	// the fast clock gains at most (1+rho) over that window.
	bound := (1 + p.Rho) * (p.BeaconEvery/(1-p.Rho) + p.MaxDelay)
	if skew > bound {
		t.Fatalf("steady-state skew %v exceeds bound %v (L0=%v L1=%v)", skew, bound, l0, l1)
	}
	// The slow node must have jumped repeatedly to track the fast one.
	if nodes[1].Snap().Jumps == 0 {
		t.Fatal("slow node never jumped despite lagging")
	}
}

func TestLogicalNeverDecreasesAndDominatesHardware(t *testing.T) {
	p := Params{Rho: 0.05, MaxDelay: 0.01, BeaconEvery: 0.07}
	en, nodes := pair(t, p, 1.05, 0.95, 0.008)
	nodes[0].Start(0)
	nodes[1].Start(0.03)
	prev := []float64{0, 0}
	for step := 1; step <= 100; step++ {
		en.Run(float64(step) * 0.2)
		for i, nd := range nodes {
			l := nd.Logical()
			if l < prev[i]-1e-12 {
				t.Fatalf("node %d logical clock decreased: %v -> %v", i, prev[i], l)
			}
			if l < nd.clk.Now()-1e-12 {
				t.Fatalf("node %d logical %v below hardware %v", i, l, nd.clk.Now())
			}
			prev[i] = l
		}
	}
}

func TestJumpRuleSetsClockToMaxEstimate(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	nd := New(0, hw, Params{Rho: 0.01, JumpThreshold: 0}, nil, nil)
	en.Schedule(1, "inject", func() { nd.OnMessage(7, 50) })
	en.Run(1)
	if got := nd.Logical(); got != 50 {
		t.Fatalf("logical after hearing 50 = %v, want 50", got)
	}
	s := nd.Snap()
	if s.Jumps != 1 || s.Messages != 1 {
		t.Fatalf("snapshot = %+v, want 1 jump and 1 message", s)
	}
	if s.MaxEstimate != 50 {
		t.Fatalf("max estimate = %v, want 50", s.MaxEstimate)
	}
}

func TestFastModeCatchesUpAtFastRate(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	// Jumps disabled: all catch-up must happen at the fast rate.
	p := Params{Rho: 0.01, BeaconEvery: 0.1, Kappa: 0.5, Mu: 1,
		JumpThreshold: math.Inf(1)}
	nd := New(0, hw, p, nil, nbrs{1})
	en.Schedule(1, "inject", func() { nd.OnMessage(1, 11) })
	en.Run(1)
	if !nd.Snap().Fast {
		t.Fatal("node not in fast mode despite neighbor 10 ahead")
	}
	if nd.Snap().Jumps != 0 {
		t.Fatal("node jumped with JumpThreshold = +Inf")
	}
	// At rate (1+Mu) = 2 the 10-unit gap closes in ~10 units of time
	// (the estimate ages forward too, but slower than the catch-up).
	en.Run(25)
	s := nd.Snap()
	if s.Fast {
		t.Fatalf("node still fast after catch-up window: %+v", s)
	}
	gap := s.MaxEstimate - s.Logical
	if gap > p.Kappa {
		t.Fatalf("residual gap %v exceeds Kappa %v", gap, p.Kappa)
	}
	if s.Logical < 20 {
		t.Fatalf("logical %v shows no fast-rate progress", s.Logical)
	}
}

// lostNeighbor runs node 0, with neighbors 1 and 2 over a real dynamic
// graph, through: neighbor 1 heard far ahead (fast mode), edge {0,1}
// removed with its OnEdgeRemoved, then the node's next event. An
// estimate heard over an edge that has since gone is stale information
// and must not hold the node in fast mode. Jumps are disabled so every
// reaction to a leading neighbor is the fast-mode rule's.
func lostNeighbor(t *testing.T) (*des.Engine, *dyngraph.Dynamic, *Node) {
	t.Helper()
	en := des.NewEngine()
	g := dyngraph.NewDynamic(3, []dyngraph.Edge{dyngraph.E(0, 1), dyngraph.E(0, 2)})
	p := Params{Rho: 0.01, Kappa: 0.5, JumpThreshold: math.Inf(1)}
	nd := New(0, clock.New(en, 1), p, nil, g)
	en.Schedule(1, "inject", func() { nd.OnMessage(1, 1000) })
	en.Run(1)
	if !nd.Snap().Fast {
		t.Fatal("node not in fast mode despite a current neighbor far ahead")
	}
	en.Schedule(1.5, "remove", func() {
		g.Remove(1.5, dyngraph.E(0, 1))
		nd.OnEdgeRemoved(1)
	})
	// The next event of any kind re-evaluates the regime.
	en.Schedule(2, "inject", func() { nd.OnMessage(2, 2) })
	en.Run(2)
	if nd.Snap().Fast {
		t.Fatal("fast mode held by a departed neighbor's estimate")
	}
	return en, g, nd
}

func TestFastModeOnlyTriggersOnCurrentNeighbors(t *testing.T) {
	lostNeighbor(t)
}

// TestReaddedNeighbourCountsAgain: the estimate of a departed neighbor
// survives in est, so when the edge returns OnEdgeAdded alone — no new
// message — must put the node back into fast mode.
func TestReaddedNeighbourCountsAgain(t *testing.T) {
	en, g, nd := lostNeighbor(t)
	en.Schedule(3, "readd", func() {
		g.Add(3, dyngraph.E(0, 1))
		nd.OnEdgeAdded(1)
	})
	en.Run(3)
	if !nd.Snap().Fast {
		t.Fatal("re-added neighbor's surviving estimate did not trigger fast mode")
	}
	if err := nd.CheckNeighborMax(); err != nil {
		t.Fatal(err)
	}
}

// scanRule is the O(degree) evaluation of the fast-mode rule that
// recompute ran on every event before the neighbor maximum was cached:
// the topology is queried afresh and every neighbor's estimate aged and
// compared on its own. It is the reference the cached rule must equal
// bit for bit. maxNorm is the largest neighbor norm, the value nbrNorm
// caches.
func scanRule(nd *Node, h, L float64) (fast bool, target, maxNorm float64) {
	target, maxNorm = math.Inf(-1), math.Inf(-1)
	for _, v := range nd.sh.topo.AppendNeighbors(nd.id, nil) {
		i, ok := nd.find(v)
		if !ok {
			continue
		}
		e := nd.est[i]
		if e.norm > maxNorm {
			maxNorm = e.norm
		}
		if est := e.norm + ageFactor(nd.sh.p.Rho)*h; est-L > nd.sh.p.Kappa {
			fast = true
			if est > target {
				target = est
			}
		}
	}
	return fast, target, maxNorm
}

// stepClock is a hand-advanced seam.Clock shared by every node of the
// property test; recTimer records the last arming instead of firing.
type stepClock struct{ h float64 }

func (c *stepClock) Now() float64                       { return c.h }
func (c *stepClock) NewTimer(string, func()) seam.Timer { return &recTimer{} }

type recTimer struct {
	dH    float64
	armed bool
}

func (t *recTimer) Reset(dH float64) { t.dH, t.armed = dH, true }
func (t *recTimer) Stop()            { t.armed = false }
func (t *recTimer) Pending() bool    { return t.armed }

// relay delivers both discover notifications to both endpoints, as the
// harnesses do.
type relay []*Node

func (r relay) EdgeAdded(_ float64, e dyngraph.Edge) {
	r[e.U].OnEdgeAdded(e.V)
	r[e.V].OnEdgeAdded(e.U)
}

func (r relay) EdgeRemoved(_ float64, e dyngraph.Edge) {
	r[e.U].OnEdgeRemoved(e.V)
	r[e.V].OnEdgeRemoved(e.U)
}

// TestCachedNeighborMaxMatchesScan drives a small network through a
// seeded random history — edges added, removed and re-added on a real
// dyngraph.Dynamic with both notifications, single and batched messages
// over present edges, catch-up timers firing, beacons, crashes,
// recoveries, resets under changed parameters — and after every step
// holds each node against scanRule: the cached maximum equals the scan
// unless a rescan is pending, and every node that re-evaluated its
// regime in the step chose the scan's regime and armed the scan's target.
func TestCachedNeighborMaxMatchesScan(t *testing.T) {
	const n = 6
	params := []Params{
		{Rho: 0.01, Kappa: 0.2, JumpThreshold: math.Inf(1)},
		{Rho: 0.05, Kappa: 0.1, Mu: 0.5, JumpThreshold: 1},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rnd := des.NewRand(seed)
		clk := &stepClock{}
		g := dyngraph.NewDynamic(n, dyngraph.Ring(n))
		// Each parameter set is shared by half the nodes; given is the set
		// each node's Shared was last Set to, which a Set of the other
		// Shared must not move.
		var shared [2]Shared
		given := make([]Params, n)
		nodes := make(relay, n)
		for i := range nodes {
			shared[i%2].Set(params[i%2], nil, g)
			nodes[i], given[i] = new(Node), params[i%2]
			nodes[i].Init(i, clk, &shared[i%2])
		}
		g.Subscribe(nodes)

		var fastSeen, rescans, readds int
		everPresent := map[dyngraph.Edge]bool{}
		check := func(step int, op string) {
			t.Helper()
			for i, nd := range nodes {
				if nd.sh.p != given[i].WithDefaults() {
					t.Fatalf("seed %d step %d (%s): node %d runs under %+v, was given %+v", seed, step, op, i, nd.sh.p, given[i])
				}
				fast, target, maxNorm := scanRule(nd, clk.h, nd.baseL)
				if !nd.nbrStale && nd.nbrNorm != maxNorm {
					t.Fatalf("seed %d step %d (%s): node %d caches %v, scan finds %v", seed, step, op, nd.id, nd.nbrNorm, maxNorm)
				}
				if err := nd.CheckNeighborMax(); err != nil {
					t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
				}
				if nd.down || nd.baseH != clk.h {
					continue // regime not re-evaluated in this step
				}
				tm := nd.catchupT.(*recTimer)
				if nd.fast != fast || tm.armed != fast {
					t.Fatalf("seed %d step %d (%s): node %d fast=%v armed=%v, scan says %v", seed, step, op, nd.id, nd.fast, tm.armed, fast)
				}
				if fast {
					fastSeen++
					if want := (target - nd.baseL) / nd.mult; tm.dH != want {
						t.Fatalf("seed %d step %d (%s): node %d armed %v, scan target gives %v", seed, step, op, nd.id, tm.dH, want)
					}
				}
			}
		}

		for step := 0; step < 4000; step++ {
			clk.h += rnd.Range(0.001, 0.05)
			u := rnd.Intn(n)
			v := (u + 1 + rnd.Intn(n-1)) % n
			e := dyngraph.E(u, v)
			var op string
			switch k := rnd.Intn(100); {
			case k < 45 && g.Present(e):
				// v hears u, a little behind to well ahead of the clock.
				op = "message"
				nodes[v].OnMessage(u, clk.h+rnd.Range(-0.5, 3))
			case k < 60:
				// Churn (also when there is no edge to send over).
				if g.Present(e) {
					op = "remove"
					for _, x := range []int{u, v} {
						if !nodes[x].nbrStale {
							rescans++
						}
					}
					g.Remove(clk.h, e)
				} else {
					op = "add"
					if everPresent[e] {
						readds++
					}
					g.Add(clk.h, e)
				}
				everPresent[e] = true
			case k < 75:
				op = "catchup"
				if tm := nodes[u].catchupT.(*recTimer); tm.armed {
					clk.h += tm.dH
					tm.armed = false
					nodes[u].recompute()
				}
			case k < 88:
				op = "beacon"
				nodes[u].emit()
			case k < 93:
				op = "crash"
				nodes[u].Crash()
			case k < 98:
				op = "recover"
				nodes[u].Recover()
			default:
				// As a harness does between runs: re-Set u's Shared, then
				// reset every node on it.
				op = "reset"
				p := params[rnd.Intn(2)]
				nodes[u].sh.Set(p, nil, g)
				for i := u % 2; i < n; i += 2 {
					given[i] = p
					nodes[i].Reset()
				}
			}
			check(step, op)
		}
		if fastSeen == 0 || rescans == 0 || readds == 0 {
			t.Fatalf("seed %d: degenerate history: fast=%d rescans=%d readds=%d", seed, fastSeen, rescans, readds)
		}
	}
}

func TestEstimateAgingIsConservative(t *testing.T) {
	en := des.NewEngine()
	hw := clock.New(en, 1)
	p := Params{Rho: 0.1, JumpThreshold: math.Inf(1), Kappa: 1}
	nd := New(0, hw, p, nil, nil)
	nd.OnMessage(1, 5)
	en.Run(10)
	// After 10 units at local rate 1, the estimate must have aged by
	// exactly 10*(1-rho)/(1+rho) — the guaranteed minimum remote progress.
	want := 5 + 10*(1-p.Rho)/(1+p.Rho)
	if got := nd.Snap().MaxEstimate; math.Abs(got-want) > 1e-9 {
		t.Fatalf("aged estimate = %v, want %v", got, want)
	}
}

func TestBeaconCadenceIsSubjective(t *testing.T) {
	// A clock at rate 2 beacons twice as often per unit real time.
	en := des.NewEngine()
	fast := New(0, clock.New(en, 2), Params{Rho: 0.01, BeaconEvery: 0.5}, nil, nil)
	slow := New(1, clock.New(en, 1), Params{Rho: 0.01, BeaconEvery: 0.5}, nil, nil)
	fast.Start(0)
	slow.Start(0)
	en.Run(10)
	fb, sb := fast.Snap().Beacons, slow.Snap().Beacons
	if fb < 2*sb-2 || fb > 2*sb+2 {
		t.Fatalf("beacon counts fast=%d slow=%d; want ~2x ratio", fb, sb)
	}
}

// TestNodeResetClearsState pins the arena-reuse contract: after a
// hardware-clock and node reset the node is indistinguishable from a
// freshly constructed one — counters zero, no estimates, logical clock
// rebased to the fresh hardware reading.
func TestNodeResetClearsState(t *testing.T) {
	p := Params{Rho: 0.01, MaxDelay: 0.01, BeaconEvery: 0.1, JumpThreshold: 0}
	en, hw, nd := solo(p)
	nd.Start(0)
	en.Run(1)
	nd.OnMessage(1, 50)
	if s := nd.Snap(); s.Jumps == 0 || s.Beacons == 0 {
		t.Fatalf("warm-up execution degenerate: %+v", s)
	}

	en.Reset()
	hw.Reset(1)
	nd.Reset()
	s := nd.Snap()
	if s.Logical != 0 || s.Hardware != 0 || s.Messages != 0 || s.Jumps != 0 ||
		s.Beacons != 0 || s.Discoveries != 0 || s.Fast || !math.IsInf(s.MaxEstimate, -1) {
		t.Fatalf("reset node retains state: %+v", s)
	}
	// The node runs normally after reset.
	nd.Start(0)
	en.Run(1)
	if s := nd.Snap(); s.Beacons == 0 || s.Logical <= 0 {
		t.Fatalf("node inert after reset: %+v", s)
	}
}
