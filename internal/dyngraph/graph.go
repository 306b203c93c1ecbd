// Package dyngraph models the paper's dynamic network graph (Section
// 3.2): a fixed node set V = {0..n-1} over which undirected edges appear
// and disappear arbitrarily, subject to the T-interval connectivity
// constraint (Definition 3.1). The package records an execution's edge
// history as a presence log, one record per presence interval, so that
// interval connectivity queries are exact, and notifies subscribers (the
// harness's neighbor discovery) of topology events as they happen. The
// transports' loss rule reads one record: a message is delivered iff the
// presence record the flight was sent on (Current) is still open at
// DeliverAt (Until).
package dyngraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
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

// record is one presence interval [Start, End) of edge {U, V}, End +Inf
// while the edge is present. Half-open as the paper's E(t) is: an edge
// removed at time t is not in E(t), one added at t is.
type record struct {
	U, V       int32
	Start, End float64
}

// Link is one entry of a node's adjacency: a present neighbour V and the
// id of the presence record of the edge to it.
type Link struct{ V, Rec int32 }

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
	// log holds one record per effective Add (initial edges included) in
	// time order, so in order of Start; a record id is its index. A
	// record is open exactly while its edge is present.
	log []record
	// adj holds the present edges as per-node neighbour-sorted links into
	// log: AppendNeighbors costs O(deg), it and RangeCurrentEdges yield
	// ascending order without sorting, and an open record is one binary
	// search away.
	adj   [][]Link
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
	g := &Dynamic{n: n, adj: make([][]Link, n)}
	g.addInitial(initial)
	return g
}

// Reset rewinds the graph to time 0 over n nodes with a fresh initial
// edge set, reusing every buffer the previous execution grew: the
// presence log and the adjacency slices are truncated in place, so
// record ids restart at 0 (a transport forgets its flights, and their
// records, on its own Reset). Subscribers stay registered — component
// wiring outlives individual runs. No EdgeAdded/EdgeRemoved
// notifications fire for the discarded or the new initial edges,
// matching NewDynamic. The topology-change epoch is bumped (not rewound)
// so cached consumers like DistanceMatrix revalidate.
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
	g.log = g.log[:0]
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
		if !g.Present(e) {
			g.open(0, e)
		}
	}
}

// open appends a record for e starting at t and links it into both
// endpoints' adjacency.
func (g *Dynamic) open(t float64, e Edge) {
	if len(g.log) == math.MaxInt32 {
		panic("dyngraph: presence log full: more than MaxInt32 edge additions in one execution")
	}
	rec := int32(len(g.log))
	g.log = append(g.log, record{U: int32(e.U), V: int32(e.V), Start: t, End: math.Inf(1)})
	g.adj[e.U] = insertLink(g.adj[e.U], Link{V: int32(e.V), Rec: rec})
	g.adj[e.V] = insertLink(g.adj[e.V], Link{V: int32(e.U), Rec: rec})
}

func insertLink(s []Link, k Link) []Link {
	i := search(s, int(k.V))
	s = append(s, k)
	copy(s[i+1:], s[i:])
	s[i] = k
	return s
}

// search returns the index of the first link in s (sorted by V) whose
// neighbour is not below v.
func search(s []Link, v int) int {
	lo, hi := 0, len(s)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); int(s[m].V) < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
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

// Present reports whether e is currently in the graph.
func (g *Dynamic) Present(e Edge) bool {
	_, ok := g.Current(e)
	return ok
}

// Current returns the id of e's open presence record, the one a message
// sent over e now is sent on, and whether e is present at all.
//
//gcslint:zeroalloc
func (g *Dynamic) Current(e Edge) (int32, bool) {
	s := g.adj[e.U]
	if i := search(s, e.V); i < len(s) && int(s[i].V) == e.V {
		return s[i].Rec, true
	}
	return 0, false
}

// Until returns the end of presence record rec: +Inf while it is open,
// else the time its edge was removed. A flight sent on rec is delivered
// iff its DeliverAt is below Until(rec).
//
//gcslint:zeroalloc
func (g *Dynamic) Until(rec int32) float64 { return g.log[rec].End }

// Links returns u's adjacency, ascending by neighbour: the graph's own
// slice, to read before the next Add or Remove.
func (g *Dynamic) Links(u int) []Link { return g.adj[u] }

// Add inserts edge e at time t. Adding a present edge is a no-op (the
// model assumes no simultaneous add+remove of the same edge).
func (g *Dynamic) Add(t float64, e Edge) {
	g.check(e)
	g.advance(t)
	if g.Present(e) {
		return
	}
	g.open(t, e)
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
	rec, ok := g.Current(e)
	if !ok {
		return
	}
	g.log[rec].End = t
	u, v := g.adj[e.U], g.adj[e.V]
	i, j := search(u, e.V), search(v, e.U)
	g.adj[e.U], g.adj[e.V] = slices.Delete(u, i, i+1), slices.Delete(v, j, j+1)
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
	for _, k := range g.adj[u] {
		buf = append(buf, int(k.V))
	}
	return buf
}

// RangeCurrentEdges calls f for every edge present now, in ascending
// (U, V) order, without allocating.
func (g *Dynamic) RangeCurrentEdges(f func(Edge)) {
	for u, links := range g.adj[:g.n] {
		// Each edge is listed at both endpoints; report it from U.
		for _, k := range links[search(links, u+1):] {
			f(Edge{U: u, V: int(k.V)})
		}
	}
}

// ExistsThroughout reports whether e exists throughout [t1, t2] in the
// paper's sense (t1 <= t2): present at t1 and not removed at any point
// of [t1, t2]. It scans e's records newest-first from the open one, if
// any: they are disjoint and in time order, so the first with Start <=
// t1 either covers [t1, t2] or no older one can.
func (g *Dynamic) ExistsThroughout(e Edge, t1, t2 float64) bool {
	i := len(g.log) - 1
	if rec, ok := g.Current(e); ok {
		i = int(rec)
	}
	for ; i >= 0; i-- {
		if r := &g.log[i]; int(r.U) == e.U && int(r.V) == e.V && r.Start <= t1 {
			return t2 < r.End
		}
	}
	return false
}

// EdgesThroughout returns the set E|[t1,t2] of edges existing throughout
// the interval, sorted. This is the edge set of the paper's static
// subgraph G[t1,t2].
func (g *Dynamic) EdgesThroughout(t1, t2 float64) []Edge {
	var out []Edge
	for _, r := range g.log {
		// An edge's records are disjoint, so at most one covers [t1, t2].
		if r.Start <= t1 && t2 < r.End {
			out = append(out, Edge{U: int(r.U), V: int(r.V)})
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return out
}

// EventTimes returns the sorted distinct times at which any edge was
// added or removed (excluding time 0 initial edges).
func (g *Dynamic) EventTimes() []float64 {
	var out []float64
	for _, r := range g.log {
		if r.Start > 0 {
			out = append(out, r.Start)
		}
		if !math.IsInf(r.End, 1) {
			out = append(out, r.End)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
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
	starts := []float64{0}
	for _, s := range g.EventTimes() {
		for _, cand := range [2]float64{s, s - T} {
			if cand >= 0 && cand+T <= horizon {
				starts = append(starts, cand)
			}
		}
	}
	slices.Sort(starts)
	for _, s := range slices.Compact(starts) {
		if s+T <= horizon && !Connected(g.n, g.EdgesThroughout(s, s+T)) {
			return s, false
		}
	}
	return 0, true
}
