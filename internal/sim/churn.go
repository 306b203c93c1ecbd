package sim

import (
	"gcs/internal/des"
	"gcs/internal/dyngraph"
)

// EdgeWriter is the topology a churn step mutates: dyngraph.Dynamic in
// the DES harness, rt.Router in the real-time runtime. Adding a present
// edge and removing an absent one are no-ops.
type EdgeWriter interface {
	Add(t float64, e dyngraph.Edge)
	Remove(t float64, e dyngraph.Edge)
}

// ChurnEvent is a churn step for the harness to schedule: Step(Arg),
// After time from now, under Label. A negative After means none.
type ChurnEvent struct {
	After float64
	Label string
	Arg   uint64
}

var noChurn = ChurnEvent{After: -1}

// ChurnState is the run's topology-change chain, the paper's Section 3
// adversary choosing every edge change:
//
//   - volatile churn keeps the backbone and toggles ExtraEdges candidate
//     edges off it, each absent for Exp(Absence) and present for
//     Exp(Lifetime), drawn from its own stream;
//   - the rotating star adds the next hub's star every Period and, Overlap
//     later, removes the old star except its edge to the new hub. A
//     complete star spans every window of length Overlap, so the execution
//     is Overlap-interval connected (Definition 3.1), not Period-interval.
//
// Like DriverState it is a step function: Step applies one event's edge
// changes and returns the events that follow, which the harness schedules
// — on the DES harness's global engine, as wall timers in internal/rt.
// An event's arg is x<<1|1 for a step that adds edges, x<<1 for one that
// removes them; x is the candidate, or for a star's removal the old hub.
type ChurnState struct {
	spec   ChurnSpec
	n, hub int
	// cands caches the volatile candidate set, a function of candKey, so
	// same-config re-runs skip the O(n) map rebuild.
	cands   []dyngraph.Edge
	candKey candKey
	streams []des.Rand
	first   []ChurnEvent
	// star is the first star's edge set, kept for the graph's Reserve.
	star []dyngraph.Edge
}

// candKey is every input of the volatile candidate set.
type candKey struct {
	n, extra int
	seed     uint64
	topo     TopologySpec
}

// Start seeds the chain for one run of cfg over g, whose edges are the
// backbone, applies the changes due at time 0 (the first star), and
// returns the chain's first events in scheduling order, in a slice the
// next Start reuses. Forking never advances root.
func (c *ChurnState) Start(cfg *Config, root *des.Rand, backbone []dyngraph.Edge, g EdgeWriter) []ChurnEvent {
	c.spec, c.n, c.hub = cfg.Churn, cfg.N, 0
	c.first = c.first[:0]
	switch cfg.Churn.Kind {
	case ChurnVolatile:
		key := candKey{n: cfg.N, seed: cfg.Seed, topo: cfg.Topology, extra: cfg.Churn.ExtraEdges}
		if c.cands == nil || key != c.candKey {
			var r des.Rand
			root.ForkInto(0xca9d, &r)
			c.cands = volatileCandidates(cfg.N, cfg.Churn.ExtraEdges, backbone, &r)
			c.candKey = key
		}
		if cap(c.streams) < len(c.cands) {
			c.streams = make([]des.Rand, len(c.cands))
		}
		c.streams = c.streams[:len(c.cands)]
		var base des.Rand
		root.ForkInto(0xc400, &base)
		for i := range c.cands {
			base.ForkInto(uint64(i), &c.streams[i])
			// Candidates lie off the backbone, so each starts absent.
			c.first = append(c.first, ChurnEvent{c.streams[i].Exp(c.spec.Absence), "churn.add", uint64(i)<<1 | 1})
		}
	case ChurnRotatingStar:
		// The first star arrives by Add, so discovery beacons fire across
		// it; a cold graph first carves the arrays it fills.
		if d, ok := g.(*dyngraph.Dynamic); ok {
			if len(c.star) != c.n-1 {
				c.star = dyngraph.Star(c.n)
			}
			d.Reserve(c.star)
		}
		c.addHub(0, 0, g)
		c.first = append(c.first, ChurnEvent{c.spec.Period, "churn.star.rotate", 1})
	}
	return c.first
}

// Step applies churn event arg to g at time now and returns the events
// that follow, in the order the harness must schedule them: a volatile
// candidate's next toggle, or a rotation's removal of the old star (after
// Overlap) and then the next rotation (after Period).
//
//gcslint:zeroalloc
func (c *ChurnState) Step(arg uint64, now float64, g EdgeWriter) (ChurnEvent, ChurnEvent) {
	x, adds := int(arg>>1), arg&1 == 1
	if c.spec.Kind == ChurnVolatile {
		e, r := c.cands[x], &c.streams[x]
		if adds {
			g.Add(now, e)
			return ChurnEvent{r.Exp(c.spec.Lifetime), "churn.remove", arg &^ 1}, noChurn
		}
		g.Remove(now, e)
		return ChurnEvent{r.Exp(c.spec.Absence), "churn.add", arg | 1}, noChurn
	}
	if !adds {
		keep := (x + 1) % c.n // the hub that replaced x
		for v := 0; v < c.n; v++ {
			if v != x && v != keep {
				g.Remove(now, dyngraph.E(x, v))
			}
		}
		return noChurn, noChurn
	}
	old := c.hub
	c.hub = (old + 1) % c.n
	c.addHub(now, c.hub, g)
	return ChurnEvent{c.spec.Overlap, "churn.star.remove", uint64(old) << 1},
		ChurnEvent{c.spec.Period, "churn.star.rotate", 1}
}

// addHub adds the complete star around hub.
func (c *ChurnState) addHub(now float64, hub int, g EdgeWriter) {
	for v := 0; v < c.n; v++ {
		if v != hub {
			g.Add(now, dyngraph.E(hub, v))
		}
	}
}

// volatileCandidates draws extra distinct random edges over n nodes that
// are not part of the static backbone. Rejection sampling is capped, so
// on dense backbones it can exhaust its attempt budget short of the
// request; the remainder is then filled by deterministic enumeration of
// the unused non-backbone pairs, so the churn is under-provisioned only
// when the graph genuinely has fewer candidates than requested.
func volatileCandidates(n, extra int, backboneEdges []dyngraph.Edge, r *des.Rand) []dyngraph.Edge {
	backbone := map[dyngraph.Edge]bool{}
	for _, e := range backboneEdges {
		backbone[e] = true
	}
	seen := map[dyngraph.Edge]bool{}
	var out []dyngraph.Edge
	for attempts := 0; len(out) < extra && attempts < 100*extra+100; attempts++ {
		u := r.Intn(n)
		v := r.Intn(n)
		if u == v {
			continue
		}
		e := dyngraph.E(u, v)
		if backbone[e] || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	for u := 0; u < n && len(out) < extra; u++ {
		for v := u + 1; v < n && len(out) < extra; v++ {
			e := dyngraph.Edge{U: u, V: v}
			if backbone[e] || seen[e] {
				continue
			}
			out = append(out, e)
		}
	}
	return out
}
