// Package dyngraph models the paper's dynamic network graph (Section
// 3.2): a fixed node set V = {0..n-1} over which undirected edges appear
// and disappear arbitrarily, subject to the T-interval connectivity
// constraint (Definition 3.1). The graph keeps the present edges and one
// open bit per presence record (one record per effective Add, open while
// its edge is present), and notifies subscribers (the harness's neighbor
// discovery) of topology events as they happen. A message is delivered
// iff the presence record the flight was sent on (Current) is still open
// when the delivery fires (Open). That is DeliverAt < Until, the
// record's removal time: every harness stamps a removal at or before the
// time of any delivery that reads the record afterwards. The past
// (interval connectivity) needs a History attached to the graph.
package dyngraph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gcs/internal/seam"
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
	// recs counts the effective Adds (initial edges included): record ids
	// are issued in that order, from 0. open holds one bit per id, set
	// while the record's edge is present.
	recs int32
	open []uint64
	// adj holds the present edges as per-node neighbour-sorted links
	// carrying their open records: AppendNeighbors costs O(deg), it and
	// RangeCurrentEdges yield ascending order without sorting, and an
	// open record is one binary search away.
	adj [][]Link
	// spare lists up to len(spare) nodes (nspare of them) whose adjacency
	// uses at most a quarter of a capacity of at least spareMin links, as
	// a former hub's does: a node whose adjacency must grow takes such an
	// array in exchange for its own instead of growing it. Entries are
	// checked again on use.
	spare  [4]int32
	nspare int
	subs   []Subscriber
	lastT  float64
	// counts for reporting
	adds, removes int
	// epoch increments on every effective Add/Remove, so consumers that
	// derive state from the current edge set (e.g. DistanceMatrix) can
	// cache it and revalidate with one integer compare.
	epoch uint64
}

// Dynamic is the DES-side seam.Topology: gcs nodes enumerate their
// current neighborhood through AppendNeighbors without importing this
// package.
var _ seam.Topology = (*Dynamic)(nil)

// NewDynamic creates a dynamic graph over n nodes with an initial edge
// set (the paper's E_0) present from time 0.
func NewDynamic(n int, initial []Edge) *Dynamic {
	g := &Dynamic{adj: make([][]Link, 0, max(n, 0))}
	g.Reset(n, initial)
	return g
}

// Reset rewinds the graph to time 0 over n nodes with a fresh initial
// edge set, reusing every buffer the previous execution grew: the open
// bits and the adjacency slices are truncated in place, so record ids
// restart at 0 (a transport forgets its flights, and their records, on
// its own Reset). Subscribers stay registered — component wiring
// outlives individual runs. No EdgeAdded/EdgeRemoved notifications fire
// for the discarded or the new initial edges, matching NewDynamic. The
// topology-change epoch is bumped (not rewound) so cached consumers
// like DistanceMatrix revalidate. A node with no array yet gets one
// carved from a slab sized by the initial degrees (Reserve).
func (g *Dynamic) Reset(n int, initial []Edge) {
	if n < 1 {
		panic("dyngraph: need at least one node")
	}
	for len(g.adj) < n {
		g.adj = append(g.adj, nil)
	}
	g.nspare = 0
	for i := range g.adj {
		g.adj[i] = g.adj[i][:0]
		g.offer(i)
	}
	g.n, g.recs, g.open = n, 0, g.open[:0]
	g.lastT, g.adds, g.removes = 0, 0, 0
	g.epoch++
	g.Reserve(initial)
	for _, e := range initial {
		if !g.Present(e) { // a repeat
			g.link(e)
		}
	}
}

// Reserve makes room for edges about to be linked: Reset's initial
// edges, or a first star that arrives by Add so discovery fires across
// it. It checks edges and, if an endpoint has no adjacency array yet (a
// cold wiring), counts every node's degree in edges and gives each node
// whose array has no room for its links and that degree an
// exact-capacity array carved from one slab, its links copied over: a
// cold wiring allocates twice, not once or more per node. A warm graph
// whose arrays all exist allocates nothing; one that needs more room
// grows it link by link. Reserve adds no edge and notifies no one.
func (g *Dynamic) Reserve(edges []Edge) {
	var deg []int32
	for _, e := range edges {
		g.check(e)
		if deg == nil && (cap(g.adj[e.U]) == 0 || cap(g.adj[e.V]) == 0) {
			deg = make([]int32, g.n)
		}
	}
	if deg == nil {
		return
	}
	for _, e := range edges {
		deg[e.U]++
		deg[e.V]++
	}
	total := 0
	for u, d := range deg {
		if need := len(g.adj[u]) + int(d); cap(g.adj[u]) < need {
			total += need
		}
	}
	slab := make([]Link, total)
	for u, d := range deg {
		if need := len(g.adj[u]) + int(d); cap(g.adj[u]) < need {
			a := slab[:len(g.adj[u]):need]
			copy(a, g.adj[u])
			g.adj[u], slab = a, slab[need:]
		}
	}
}

// link issues an open record for e and links it into both endpoints'
// adjacency.
func (g *Dynamic) link(e Edge) {
	if g.recs == math.MaxInt32 {
		panic("dyngraph: record ids exhausted: more than MaxInt32 edge additions in one execution")
	}
	rec := g.recs
	g.recs++
	if int(rec>>6) == len(g.open) {
		g.open = append(g.open, 0)
	}
	g.open[rec>>6] |= 1 << (rec & 63)
	g.insert(e.U, Link{V: int32(e.V), Rec: rec})
	g.insert(e.V, Link{V: int32(e.U), Rec: rec})
}

// spareMin is the least capacity, in links, that the spare list tracks.
const spareMin = 16

// offer lists u's adjacency as spare if it qualifies, is not listed yet
// and there is room.
func (g *Dynamic) offer(u int) {
	if s := g.adj[u]; cap(s) < spareMin || len(s) > cap(s)/4 || g.nspare == len(g.spare) ||
		slices.Contains(g.spare[:g.nspare], int32(u)) {
		return
	}
	g.spare[g.nspare] = int32(u)
	g.nspare++
}

// insert links k into u's adjacency. When the adjacency is full it first
// trades arrays with a listed spare that can hold u's links and has at
// least twice u's capacity, if any: the spare's few links move into u's
// old array, and u's links into the spare's.
func (g *Dynamic) insert(u int, k Link) {
	s := g.adj[u]
	for i := 0; len(s) == cap(s) && i < g.nspare; {
		w := int(g.spare[i])
		big := g.adj[w]
		if cap(big) < spareMin || len(big) > cap(big)/4 {
			// No longer spare: drop the entry.
			g.nspare--
			g.spare[i] = g.spare[g.nspare]
			continue
		}
		if cap(big) < 2*cap(s) || len(big) > cap(s) {
			i++
			continue
		}
		g.nspare--
		g.spare[i] = g.spare[g.nspare]
		// big[:len(s)] and big's links at its end are disjoint, since
		// len(big) + len(s) <= 2*cap(s) <= cap(big).
		nb, ns := len(big), len(s)
		big = big[:cap(big)]
		copy(big[cap(big)-nb:], big[:nb])
		copy(big, s)
		g.adj[w] = append(s[:0], big[cap(big)-nb:]...)
		s = big[:ns]
	}
	g.adj[u] = insertLink(s, k)
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

// Open reports whether presence record rec is still open: whether the
// edge it was issued for has not been removed since. A flight sent on
// rec is delivered iff rec is still open when the delivery fires.
//
//gcslint:zeroalloc
func (g *Dynamic) Open(rec int32) bool { return g.open[rec>>6]&(1<<(rec&63)) != 0 }

// Links returns u's adjacency, ascending by neighbour: the graph's own
// slice, to read before the next Add or Remove.
func (g *Dynamic) Links(u int) []Link { return g.adj[u] }

// Add inserts edge e at time t under a new presence record. Adding a
// present edge is a no-op. A remove and a re-add at one instant are two
// changes: the re-added edge is on a new record, and the old one stays
// closed.
func (g *Dynamic) Add(t float64, e Edge) {
	g.check(e)
	g.advance(t)
	if g.Present(e) {
		return
	}
	g.link(e)
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
	g.open[rec>>6] &^= 1 << (rec & 63)
	u, v := g.adj[e.U], g.adj[e.V]
	i, j := search(u, e.V), search(v, e.U)
	g.adj[e.U], g.adj[e.V] = slices.Delete(u, i, i+1), slices.Delete(v, j, j+1)
	g.offer(e.U)
	g.offer(e.V)
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

// ExistsThroughout reports whether e exists throughout [t1, t2] for t1
// at or after the latest Add or Remove: whether e is present now. It
// panics on an earlier t1, which needs a History.
func (g *Dynamic) ExistsThroughout(e Edge, t1, t2 float64) bool {
	if t1 < g.lastT {
		panic(fmt.Sprintf("dyngraph: ExistsThroughout(%v, %v, %v) before the latest change at %v: the graph keeps no history, attach a History", e, t1, t2, g.lastT))
	}
	return g.Present(e)
}

// History is a graph's edge history from the time it was attached, one
// record per presence interval, so queries over the past are exact. It
// grows by a record per Add for the whole run, which is why the graph
// itself keeps only an open bit per record. It knows nothing from before
// it was attached and records nothing after its graph's next Reset.
type History struct {
	g     *Dynamic
	from  float64 // when attached: the edges present then are not events
	epoch uint64  // g's epoch after the last change recorded
	log   []record
	last  map[Edge]int32 // each edge's newest record in log, plus one
}

// record is one presence interval [Start, End) of edge {U, V}, End +Inf
// while the edge is present. Half-open as the paper's E(t) is: an edge
// removed at time t is not in E(t), one added at t is. Prev is the
// edge's previous record plus one, 0 for its first.
type record struct {
	U, V, Prev int32
	Start, End float64
}

// NewHistory attaches a history to g: g's present edges open records
// at g's current time, and every later Add and Remove is recorded.
//
//gcslint:allow testonly — the exact edge history is for tests and offline analysis: the drop rule needs only the graph's open bits, and no harness run attaches one
func NewHistory(g *Dynamic) *History {
	h := &History{g: g, from: g.lastT, epoch: g.epoch, last: map[Edge]int32{}}
	g.RangeCurrentEdges(func(e Edge) { h.open(h.from, e) })
	g.Subscribe(h)
	return h
}

// EdgeAdded opens a record for e at t.
func (h *History) EdgeAdded(t float64, e Edge) {
	if h.follows() {
		h.open(t, e)
	}
}

// EdgeRemoved closes e's open record at t.
func (h *History) EdgeRemoved(t float64, e Edge) {
	if h.follows() {
		h.log[h.last[e]-1].End = t
	}
}

// follows reports whether the change h is told of is its graph's next
// since the last one h recorded. Reset changes the graph and its epoch
// without telling subscribers, so a history ends at its graph's Reset.
func (h *History) follows() bool {
	h.epoch++
	return h.epoch == h.g.epoch
}

// open records e as present from t.
func (h *History) open(t float64, e Edge) {
	h.log = append(h.log, record{U: int32(e.U), V: int32(e.V), Prev: h.last[e], Start: t, End: math.Inf(1)})
	h.last[e] = int32(len(h.log))
}

// ExistsThroughout reports whether e exists throughout [t1, t2] in the
// paper's sense (t1 <= t2): present at t1 and not removed at any point
// of [t1, t2]. It walks e's records newest-first: they are disjoint and
// in time order, so the first with Start <= t1 either covers [t1, t2]
// or no older one can.
func (h *History) ExistsThroughout(e Edge, t1, t2 float64) bool {
	for i := h.last[e]; i > 0; i = h.log[i-1].Prev {
		if r := &h.log[i-1]; r.Start <= t1 {
			return t2 < r.End
		}
	}
	return false
}

// EdgesThroughout returns the edges existing throughout [t1, t2],
// sorted: E|[t1,t2], the edges of the paper's static subgraph G[t1,t2].
func (h *History) EdgesThroughout(t1, t2 float64) []Edge {
	var out []Edge
	for i, r := range h.log {
		// Ask once per edge, at its newest record.
		if e := (Edge{U: int(r.U), V: int(r.V)}); h.last[e] == int32(i+1) && h.ExistsThroughout(e, t1, t2) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return out
}

// EventTimes returns the sorted distinct times at which any edge was
// added or removed, the edges present when the history was attached
// (at time 0, the initial ones) excluded.
func (h *History) EventTimes() []float64 {
	var out []float64
	for _, r := range h.log {
		if r.Start > h.from {
			out = append(out, r.Start)
		}
		if !math.IsInf(r.End, 1) {
			out = append(out, r.End)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// VerifyIntervalConnectivity checks Definition 3.1 exactly up to
// horizon: every window [t, t+T] from the attach time on has a connected
// static subgraph G[t,t+T]. E|[t,t+T] changes only when t or t+T
// crosses an event time, so the window starts tested are the attach
// time and every event time s and s-T in range. It returns the first
// violating start, or (0, true).
//
//gcslint:allow testonly — the paper's Def. 3.1 premise; churn cells are to assert it before their bounds apply
func (h *History) VerifyIntervalConnectivity(T, horizon float64) (float64, bool) {
	if T <= 0 {
		panic("dyngraph: T must be positive")
	}
	starts := []float64{h.from}
	for _, s := range h.EventTimes() {
		starts = append(starts, s, s-T)
	}
	slices.Sort(starts)
	for _, s := range slices.Compact(starts) {
		if s >= h.from && s+T <= horizon && !Connected(h.g.N(), h.EdgesThroughout(s, s+T)) {
			return s, false
		}
	}
	return 0, true
}
