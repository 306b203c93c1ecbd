// Package dyngraph models the paper's dynamic network graph (Section
// 3.2): a fixed node set V = {0..n-1} over which undirected edges appear
// and disappear arbitrarily, subject to the T-interval connectivity
// constraint (Definition 3.1). The package records the full edge history
// of an execution so that interval connectivity and "edge exists
// throughout [t1,t2]" queries are exact (the transports' loss rule is
// one such query per delivery), and notifies subscribers (the harness's
// neighbor discovery) of topology events as they happen.
package dyngraph

import (
	"fmt"
	"math"
	"sort"
)

// Edge is an undirected potential edge {U, V} with U < V (an element of
// the paper's V^(2)).
type Edge struct {
	U, V int
}

// E returns the canonical Edge for the unordered pair {u, v}. It panics
// if u == v; the model has no self-loops.
func E(u, v int) Edge {
	if u == v {
		panic(fmt.Sprintf("dyngraph: self-loop at node %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return Edge{U: u, V: v}
}

// String renders the edge as its unordered pair.
func (e Edge) String() string { return fmt.Sprintf("{%d,%d}", e.U, e.V) }

// Interval is a half-open presence interval [Start, End). End is +Inf
// while the edge is still present. The half-open convention matches the
// paper's definition of E(t): an edge removed exactly at time t is not in
// E(t), while an edge added at time t is.
type Interval struct {
	Start, End float64
}

// Covers reports whether [t1, t2] is fully inside [Start, End): the edge
// exists throughout [t1, t2] per the paper (present at t1 and not removed
// at any point of [t1, t2], inclusive).
func (iv Interval) Covers(t1, t2 float64) bool { return iv.Start <= t1 && t2 < iv.End }

// Subscriber receives topology change notifications at the instant they
// occur (the add/remove events of the model, not the delayed discover
// events — those are the subscribing harness's job).
type Subscriber interface {
	EdgeAdded(t float64, e Edge)
	EdgeRemoved(t float64, e Edge)
}

// Dynamic is the evolving graph of one execution. Add and Remove must be
// called with nondecreasing times (they are driven by simulation events).
type Dynamic struct {
	n int
	// hist holds every edge's presence intervals in time order; an edge
	// is present exactly when its last interval is still open.
	hist map[Edge][]Interval
	// adj holds the present edges as per-node sorted neighbor slices, so
	// that AppendNeighbors costs O(deg) instead of scanning every edge
	// ever seen, and both it and RangeCurrentEdges yield a deterministic
	// ascending order without sorting or allocating.
	adj   [][]int
	subs  []Subscriber
	lastT float64
	// counts for reporting
	adds, removes int
	// epoch increments on every effective Add/Remove, so consumers that
	// derive state from the current edge set (e.g. DistanceMatrix) can
	// cache it and revalidate with one integer compare.
	epoch uint64
}

// NewDynamic creates a dynamic graph over n nodes with an initial edge
// set (the paper's E_0) present from time 0.
func NewDynamic(n int, initial []Edge) *Dynamic {
	if n < 1 {
		panic("dyngraph: need at least one node")
	}
	g := &Dynamic{
		n:    n,
		hist: make(map[Edge][]Interval),
		adj:  make([][]int, n),
	}
	g.addInitial(initial)
	return g
}

// Reset rewinds the graph to time 0 over n nodes with a fresh initial
// edge set, reusing every buffer the previous execution grew: the history
// map keeps its buckets (its interval slices are truncated in place, so
// re-adding an edge seen before allocates nothing), adjacency slices keep
// their capacity, and subscribers stay registered — component wiring
// outlives individual runs. No
// EdgeAdded/EdgeRemoved notifications fire for either the discarded or
// the new initial edges, matching NewDynamic. The topology-change epoch
// is bumped (not rewound) so cached consumers like DistanceMatrix
// revalidate.
func (g *Dynamic) Reset(n int, initial []Edge) {
	if n < 1 {
		panic("dyngraph: need at least one node")
	}
	for len(g.adj) < n {
		g.adj = append(g.adj, nil)
	}
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
	}
	g.n = n
	for e, ivs := range g.hist { //gcslint:allow maprange — bulk clear, no order observable
		g.hist[e] = ivs[:0]
	}
	g.lastT = 0
	g.adds, g.removes = 0, 0
	g.epoch++
	g.addInitial(initial)
}

// addInitial makes the initial edges present from time 0, skipping
// repeats.
func (g *Dynamic) addInitial(initial []Edge) {
	for _, e := range initial {
		g.check(e)
		if g.Present(e) {
			continue
		}
		g.linkAdj(e)
		g.hist[e] = append(g.hist[e], Interval{Start: 0, End: math.Inf(1)})
	}
}

// linkAdj inserts each endpoint into the other's sorted neighbor slice.
func (g *Dynamic) linkAdj(e Edge) {
	g.adj[e.U] = insertSorted(g.adj[e.U], e.V)
	g.adj[e.V] = insertSorted(g.adj[e.V], e.U)
}

// unlinkAdj removes each endpoint from the other's sorted neighbor slice.
func (g *Dynamic) unlinkAdj(e Edge) {
	g.adj[e.U] = removeSorted(g.adj[e.U], e.V)
	g.adj[e.V] = removeSorted(g.adj[e.V], e.U)
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func (g *Dynamic) check(e Edge) {
	if e.U < 0 || e.V >= g.n || e.U >= e.V {
		panic(fmt.Sprintf("dyngraph: invalid edge %v for n=%d", e, g.n))
	}
}

// N returns the number of nodes.
func (g *Dynamic) N() int { return g.n }

// Subscribe registers a topology-event subscriber.
func (g *Dynamic) Subscribe(s Subscriber) { g.subs = append(g.subs, s) }

// Present reports whether e is currently in the graph: its last presence
// interval is still open.
func (g *Dynamic) Present(e Edge) bool {
	ivs := g.hist[e]
	return len(ivs) > 0 && math.IsInf(ivs[len(ivs)-1].End, 1)
}

// Add inserts edge e at time t. Adding a present edge is a no-op (the
// model assumes no simultaneous add+remove of the same edge).
func (g *Dynamic) Add(t float64, e Edge) {
	g.check(e)
	g.advance(t)
	if g.Present(e) {
		return
	}
	g.linkAdj(e)
	g.hist[e] = append(g.hist[e], Interval{Start: t, End: math.Inf(1)})
	g.adds++
	g.epoch++
	for _, s := range g.subs {
		s.EdgeAdded(t, e)
	}
}

// Remove deletes edge e at time t. Removing an absent edge is a no-op.
func (g *Dynamic) Remove(t float64, e Edge) {
	g.check(e)
	g.advance(t)
	if !g.Present(e) {
		return
	}
	ivs := g.hist[e]
	ivs[len(ivs)-1].End = t
	g.unlinkAdj(e)
	g.removes++
	g.epoch++
	for _, s := range g.subs {
		s.EdgeRemoved(t, e)
	}
}

func (g *Dynamic) advance(t float64) {
	if t < g.lastT {
		panic(fmt.Sprintf("dyngraph: time went backwards: %v < %v", t, g.lastT))
	}
	g.lastT = t
}

// Stats returns the number of add and remove events so far.
func (g *Dynamic) Stats() (adds, removes int) { return g.adds, g.removes }

// Epoch returns the topology-change generation: it increments on every
// effective Add or Remove (no-ops excluded). Two equal Epoch readings
// bracket an interval over which the current edge set did not change.
func (g *Dynamic) Epoch() uint64 { return g.epoch }

// AppendNeighbors appends the nodes currently adjacent to u to buf, in
// ascending order, and returns the extended slice. Callers on hot paths
// reuse buf across calls to avoid allocating; the deterministic order
// makes broadcast fan-out (and hence PRNG draw order) reproducible.
func (g *Dynamic) AppendNeighbors(u int, buf []int) []int {
	return append(buf, g.adj[u]...)
}

// RangeCurrentEdges calls f for every edge present now, in ascending
// (U, V) order, without allocating.
func (g *Dynamic) RangeCurrentEdges(f func(Edge)) {
	for u, nbrs := range g.adj[:g.n] {
		// Each edge is listed at both endpoints; report it from U.
		for _, v := range nbrs[sort.SearchInts(nbrs, u+1):] {
			f(Edge{U: u, V: v})
		}
	}
}

// ExistsThroughout reports whether e exists throughout [t1, t2] in the
// paper's sense (t1 <= t2). Both DES transports ask it once per
// delivered message, about a flight that has just ended, so it scans the
// history newest-first: intervals are appended in time order and are
// disjoint, so the first one with Start <= t1 either covers [t1, t2] or
// nothing earlier can — every older interval ends at or before that
// Start. A delivery-time query is O(1) however long the edge has churned.
func (g *Dynamic) ExistsThroughout(e Edge, t1, t2 float64) bool {
	ivs := g.hist[e]
	for i := len(ivs) - 1; i >= 0; i-- {
		if ivs[i].Start <= t1 {
			return ivs[i].Covers(t1, t2)
		}
	}
	return false
}

// EdgesThroughout returns the set E|[t1,t2] of edges existing throughout
// the interval, sorted. This is the edge set of the paper's static
// subgraph G[t1,t2].
func (g *Dynamic) EdgesThroughout(t1, t2 float64) []Edge {
	var out []Edge
	for e, ivs := range g.hist {
		for _, iv := range ivs {
			if iv.Covers(t1, t2) {
				out = append(out, e)
				break
			}
		}
	}
	sortEdges(out)
	return out
}

// IntervalConnected reports whether G[t1,t2] is connected.
func (g *Dynamic) IntervalConnected(t1, t2 float64) bool {
	return Connected(g.n, g.EdgesThroughout(t1, t2))
}

// EventTimes returns the sorted distinct times at which any edge was
// added or removed (excluding time 0 initial edges).
func (g *Dynamic) EventTimes() []float64 {
	seen := map[float64]bool{}
	for _, ivs := range g.hist {
		for _, iv := range ivs {
			if iv.Start > 0 {
				seen[iv.Start] = true
			}
			if !math.IsInf(iv.End, 1) {
				seen[iv.End] = true
			}
		}
	}
	out := make([]float64, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Float64s(out)
	return out
}

// VerifyIntervalConnectivity checks Definition 3.1 exactly over [0,
// horizon]: for every window [t, t+T] with t in [0, horizon-T], the
// static subgraph G[t,t+T] is connected. Because E|[t,t+T] only changes
// when t crosses an event time (or t+T does), it suffices to test window
// starts at 0 and at every event time s and s-T within range. Returns the
// first violating window start, or (0, true) if the property holds.
//
//gcslint:allow testonly — the paper's Def. 3.1 premise; churn cells are to assert it before their bounds apply
func (g *Dynamic) VerifyIntervalConnectivity(T, horizon float64) (float64, bool) {
	if T <= 0 {
		panic("dyngraph: T must be positive")
	}
	starts := map[float64]bool{0: true}
	for _, s := range g.EventTimes() {
		for _, cand := range []float64{s, s - T} {
			if cand >= 0 && cand+T <= horizon {
				starts[cand] = true
			}
		}
	}
	sorted := make([]float64, 0, len(starts))
	for s := range starts {
		sorted = append(sorted, s)
	}
	sort.Float64s(sorted)
	for _, s := range sorted {
		if s+T > horizon {
			continue
		}
		if !g.IntervalConnected(s, s+T) {
			return s, false
		}
	}
	return 0, true
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
}
