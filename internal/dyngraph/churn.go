package dyngraph

import (
	"gcs/internal/des"
)

// Churn processes drive edge add/remove events on a Dynamic graph. Each
// is designed so that the resulting execution remains T-interval
// connected (Definition 3.1) for an appropriate T, which the tests
// verify with Dynamic.VerifyIntervalConnectivity.

// Churner installs topology-change events on an engine.
type Churner interface {
	Install(en *des.Engine, g *Dynamic)
}

// VolatileEdges churns a candidate edge pool around a static backbone:
// each candidate independently alternates between present (exponential
// mean Lifetime) and absent (exponential mean Absence). Because the
// backbone never changes, the graph is T-interval connected for every T
// as long as the backbone is connected.
type VolatileEdges struct {
	Candidates []Edge
	Lifetime   float64 // mean present duration
	Absence    float64 // mean absent duration
	Rand       *des.Rand
}

// Install implements Churner.
func (c VolatileEdges) Install(en *des.Engine, g *Dynamic) {
	if c.Lifetime <= 0 || c.Absence <= 0 {
		panic("dyngraph: VolatileEdges durations must be positive")
	}
	r := c.Rand
	if r == nil {
		r = des.NewRand(1)
	}
	for i, e := range c.Candidates {
		e := e
		rr := r.Fork(uint64(i))
		var appear, vanish func()
		appear = func() {
			g.Add(en.Now(), e)
			en.ScheduleAfter(rr.Exp(c.Lifetime), "churn.remove", vanish)
		}
		vanish = func() {
			g.Remove(en.Now(), e)
			en.ScheduleAfter(rr.Exp(c.Absence), "churn.add", appear)
		}
		if g.Present(e) {
			en.ScheduleAfter(rr.Exp(c.Lifetime), "churn.remove", vanish)
		} else {
			en.ScheduleAfter(rr.Exp(c.Absence), "churn.add", appear)
		}
	}
}

// RotatingStar cycles the network through star topologies with changing
// hubs: every Period, the star centered at the next hub is added, and
// Overlap later the previous star is removed. At every instant at least
// one complete star exists, and any window of length >= Period contains
// an interval where a single star spans all nodes, so the execution is
// Period-interval connected. This is a maximally dynamic pattern: every
// edge's endpoints change every Period.
type RotatingStar struct {
	Period  float64
	Overlap float64 // how long consecutive stars coexist; 0 < Overlap < Period
}

// Install implements Churner. The initial graph should contain the star
// of the first hub (use Star(n) with hub 0, or leave empty and the
// churner adds it at time 0).
func (c RotatingStar) Install(en *des.Engine, g *Dynamic) {
	if c.Period <= 0 || c.Overlap <= 0 || c.Overlap >= c.Period {
		panic("dyngraph: RotatingStar needs 0 < Overlap < Period")
	}
	n := g.N()
	addStar := func(hub int) {
		for v := 0; v < n; v++ {
			if v != hub {
				g.Add(en.Now(), E(hub, v))
			}
		}
	}
	removeStar := func(hub, keepHub int) {
		for v := 0; v < n; v++ {
			if v != hub {
				e := E(hub, v)
				// Do not remove edges shared with the star we keep.
				if e.Has(keepHub) {
					continue
				}
				g.Remove(en.Now(), e)
			}
		}
	}
	k := 0
	addStar(0)
	var rotate func()
	rotate = func() {
		old := k % n
		k++
		next := k % n
		addStar(next)
		en.ScheduleAfter(c.Overlap, "churn.star.remove", func() {
			removeStar(old, next)
		})
		en.ScheduleAfter(c.Period, "churn.star.rotate", rotate)
	}
	en.ScheduleAfter(c.Period, "churn.star.rotate", rotate)
}
