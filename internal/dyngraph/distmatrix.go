package dyngraph

import (
	"math/bits"
	"slices"
)

// DistanceMatrix caches all-pairs hop distances over a Dynamic graph's
// current edge set. It exists for per-sample consumers — the gradient
// checker reads dist(u, v) for every node pair at every skew sample —
// so the design goals are (a) zero steady-state allocation: the flat
// n*n matrix and the BFS scratch are allocated once at construction and
// reused by every recompute, and (b) lazy revalidation: Update costs
// one integer epoch compare while the topology is unchanged and one
// all-pairs recompute per topology-change epoch otherwise.
//
// A recompute is a bit-parallel multi-source BFS (Then et al., "The More
// the Merrier: Efficient Multi-Source Graph Traversal", VLDB 2015). The
// sources run in batches of 64, one bit of a uint64 per source, so one
// scan of a frontier node's arcs advances every source of the batch
// whose layer holds that node. Hop distances are unique, so the matrix
// is the same entry for entry as n single-source BFS runs would give.
// What a batch saves depends on how often its sources' layers meet
// (BenchmarkDistanceMatrixUpdate; ratios to n single-source runs on a
// 2-core Xeon):
//   - often — a short, irregular diameter (a ring with n/2 random
//     chords, which is the gradient sweep's volatile overlay; a star):
//     one arc scan serves many sources, and a recompute costs about a
//     sixth (ring with chords) to a quarter (star) as much, at n = 256
//     and 1024 alike. A 16×16 grid costs about half.
//   - rarely — a long diameter (a plain ring, diameter n/2): a batch
//     gains about one source per layer, and the per-layer bookkeeping
//     makes a recompute cost 1.7× (n = 256) to 2.2× (n = 1024) as much.
//     A 32×32 grid costs 1.3× as much.
//
// A consumer that reads every pair once per epoch need not build the
// matrix at all: Fold runs the same BFS with each batch's sources in
// order of a value per node and folds max |value_u − value_v| per
// distance as each node gains its sources, O(1) per node and layer
// rather than per pair. The gradient checker folds the first sample of
// every epoch and builds the matrix only when a second sample sees the
// same epoch. Per sample at
// n = 256 (BenchmarkDistanceMatrixUpdate's Fold cases against Update
// plus a Scan of every pair; median of three on a 2-core Xeon), a fold
// costs 0.13 ms against 0.30 on a ring with n/2 chords, 0.02 against
// 0.13 on a star, 0.22 against 0.41 on the 16×16 grid and 0.49 against
// 0.59 on a plain ring; at n = 1024, 2.6 against 6.5 ms with chords and
// 11.0 against 15.3 on the plain ring.
type DistanceMatrix struct {
	n    int
	dist []int32 // n*n row-major; -1 for unreachable pairs
	// marks is each node's BFS state for the batch in flight.
	marks []sourceBits
	// frontier lists the nodes of the current layer; touched collects
	// the next layer's, each once. Both have room for n+1 (see sweep).
	frontier, touched []int32
	// ranked is a fold batch's source order: its nodes with a value,
	// sorted by (value, id).
	ranked [batch]rankedNode
	// epoch is the last graph epoch an Update or a Fold met; seen says
	// one has, and valid that dist holds that epoch's distances (a Fold
	// meets an epoch without building them).
	epoch       uint64
	seen, valid bool
	// recomputes counts the epochs met and builds the matrices built, so
	// tests can pin laziness.
	recomputes, builds int
}

// sourceBits is one node's BFS state, bit i standing for the i-th
// source of the batch in flight. The three words sit together so a
// visit to a node touches one cache line.
type sourceBits struct {
	seen  uint64 // sources that have reached the node
	visit uint64 // sources whose current layer holds it; read for frontier nodes only
	next  uint64 // sources that reach it in the layer being built, seen ones included
}

// rankedNode is one fold source: a node and its value.
type rankedNode struct {
	v  float64
	id int32
}

// batch is the number of sources one sweep runs: a uint64's bits.
const batch = 64

// NewDistanceMatrix returns a matrix for graphs over n nodes. It holds
// no distances until the first Update.
func NewDistanceMatrix(n int) *DistanceMatrix {
	if n < 1 {
		panic("dyngraph: DistanceMatrix needs at least one node")
	}
	return &DistanceMatrix{
		n:        n,
		dist:     make([]int32, n*n),
		marks:    make([]sourceBits, n),
		frontier: make([]int32, 0, n+1),
		touched:  make([]int32, 0, n+1),
	}
}

// Update revalidates the matrix against g's current edge set: a no-op
// while g.Epoch() matches the epoch of the last recompute, an all-pairs
// recompute otherwise. It reports whether a recompute happened. The
// graph must have the node count the matrix was sized for.
func (dm *DistanceMatrix) Update(g *Dynamic) bool {
	if g.N() != dm.n {
		panic("dyngraph: DistanceMatrix node count mismatch")
	}
	met := dm.seen && g.Epoch() == dm.epoch
	if met && dm.valid {
		return false
	}
	for base := 0; base < dm.n; base += batch {
		dm.sweep(g.adj, base, min(batch, dm.n-base), nil, nil)
	}
	if !met {
		dm.recomputes++
	}
	dm.epoch, dm.seen, dm.valid = g.Epoch(), true, true
	dm.builds++
	return true
}

// Fold folds one sample over g's current edge set into per-distance
// maxima without building the matrix: for every pair u, v at hop
// distance d >= 1 whose values are both non-NaN, it raises maxByDist[d]
// to |vals[u] − vals[v]| where that is larger, bit for bit as a scan of
// every pair over Row would, and returns the largest d it raised (0 for
// none). Each batch runs the nodes Update would run in it, with bit i
// for the i-th smallest value, so a node that gains a set of sources at
// depth d finds the smallest in O(1) (see fold). If the matrix has
// already met g's epoch, through Update or an earlier Fold, Fold does
// nothing and returns ok false: from an epoch's second sample on,
// building the matrix once and scanning it is the cheaper path. A Fold
// leaves Row unusable until the next Update.
//
//gcslint:zeroalloc
func (dm *DistanceMatrix) Fold(g *Dynamic, vals, maxByDist []float64) (raised int, ok bool) {
	if g.N() != dm.n || len(vals) != dm.n {
		panic("dyngraph: DistanceMatrix node count mismatch")
	}
	if dm.seen && g.Epoch() == dm.epoch {
		return 0, false
	}
	// A NaN is no value: such a node is no source, and as a target its
	// differences are NaN, which fail every comparison.
	for base := 0; base < dm.n; base += batch {
		src, k := dm.ranked[:], 0
		for id, v := range vals[base:min(base+batch, dm.n)] {
			if v == v {
				src[k] = rankedNode{v, int32(base + id)}
				k++
			}
		}
		if k > 0 {
			slices.SortFunc(src[:k], byValue)
			raised = max(raised, dm.sweep(g.adj, base, k, vals, maxByDist))
		}
	}
	dm.epoch, dm.seen, dm.valid = g.Epoch(), true, false
	dm.recomputes++
	return raised, true
}

// byValue orders fold sources by value, then id.
func byValue(a, b rankedNode) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return int(a.id - b.id)
}

// sweep runs one BFS from k sources at once. With vals nil the sources
// are nodes base..base+k-1 and it fills those columns of every row: the
// matrix is symmetric, so a node w that gains sources at depth d writes
// d into its own row at their columns, contiguous writes. Otherwise the
// sources are ranked[:k], bit i the i-th in value order, and a node w
// that gains the set G at depth d folds its largest difference to G into
// maxByDist[d]; sweep returns the largest d it raised. A layer costs the
// arcs out of its frontier plus two passes over the nodes they reached.
//
//gcslint:zeroalloc
func (dm *DistanceMatrix) sweep(adj [][]Link, base, k int, vals, maxByDist []float64) (raised int) {
	n, marks := dm.n, dm.marks
	frontier, touched := dm.frontier[:0], dm.touched[:n+1]
	for i := 0; i < k; i++ {
		s := base + i
		if vals != nil {
			s = int(dm.ranked[i].id)
		} else {
			dm.dist[s*n+s] = 0
		}
		marks[s].seen, marks[s].visit = 1<<i, 1<<i
		frontier = append(frontier, int32(s))
	}
	for d := int32(1); ; d++ {
		next := touched[:expand(adj, marks, frontier, touched)]
		if len(next) == 0 {
			break
		}
		if vals == nil {
			dm.write(next, base, k, d)
		} else if dm.fold(next, vals, &maxByDist[d]) {
			raised = int(d)
		}
		frontier, touched = next, frontier[:n+1]
	}
	all := ^uint64(0) >> (batch - k)
	for w := range marks {
		if miss := all &^ marks[w].seen; miss != 0 && vals == nil {
			row := dm.dist[w*n+base : w*n+base+k]
			for ; miss != 0; miss &= miss - 1 {
				row[bits.TrailingZeros64(miss)] = -1
			}
		}
		marks[w].seen = 0
	}
	return raised
}

// expand advances the batch one layer: it scans the arcs out of
// frontier, lists in touched each node that gains sources, once, and
// leaves its gain in visit. It returns how many it listed. Whether an
// arc reaches a node first in its layer, and whether the node gains
// anything, is data a branch predictor cannot learn, so neither pass
// branches on it: the arc loop gives every target the next touched
// slot and keeps it when the target is new to the layer (at most n
// are kept, and the spare slot takes the last write), and the settle
// pass compacts the list to the nodes that gained.
//
//gcslint:zeroalloc
func expand(adj [][]Link, marks []sourceBits, frontier, touched []int32) int {
	nt := 0
	for _, u := range frontier {
		bu := marks[u].visit
		for _, k := range adj[u] {
			m := &marks[k.V]
			old := m.next
			m.next = old | bu
			touched[nt] = k.V
			nt += isZero(old)
		}
	}
	kept := 0
	for _, w := range touched[:nt] {
		m := &marks[w]
		gain := m.next &^ m.seen
		m.seen |= gain
		m.visit, m.next = gain, 0
		touched[kept] = w
		kept += 1 - isZero(gain)
	}
	return kept
}

// write records depth d for the layer's nodes in their rows' columns
// base..base+k-1.
//
//gcslint:zeroalloc
func (dm *DistanceMatrix) write(layer []int32, base, k int, d int32) {
	for _, w := range layer {
		row := dm.dist[int(w)*dm.n+base : int(w)*dm.n+base+k]
		for gain := dm.marks[w].visit; gain != 0; gain &= gain - 1 {
			row[bits.TrailingZeros64(gain)] = d
		}
	}
}

// fold raises *bucket to the largest vals[w] − value over the layer's
// nodes w and the sources each gained, and reports whether it did. The
// gain's bits run in value order, so the lowest names the smallest
// value w gained, and rounded subtraction is monotone, so vals[w] minus
// it is the largest of w's differences. Only the signed difference is
// needed: every pair meets from both ends, each a source the other
// gains in some batch, and a − b = −(b − a) exactly, so the larger end
// brings |a − b| bit for bit. A NaN fails the comparison.
//
//gcslint:zeroalloc
func (dm *DistanceMatrix) fold(layer []int32, vals []float64, bucket *float64) (raised bool) {
	src, top := &dm.ranked, *bucket
	for _, w := range layer {
		if far := vals[w] - src[bits.TrailingZeros64(dm.marks[w].visit)].v; far > top {
			top, raised = far, true
		}
	}
	*bucket = top
	return raised
}

// isZero returns 1 if x is zero and 0 otherwise, without a branch: the
// top bit of ^x & (x-1) is set only when x is zero.
func isZero(x uint64) int { return int((^x & (x - 1)) >> 63) }

// Row returns the distances from u to every node (-1 for unreachable).
// The slice aliases the matrix and is valid until the next Update or
// Fold; it panics after a Fold until an Update builds the matrix.
func (dm *DistanceMatrix) Row(u int) []int32 {
	if !dm.valid {
		panic("dyngraph: DistanceMatrix read before an Update built it")
	}
	return dm.dist[u*dm.n : (u+1)*dm.n]
}

// Recomputes returns the number of topology epochs the matrix has met,
// by an all-pairs recompute or a Fold, for asserting that revalidation
// is lazy.
func (dm *DistanceMatrix) Recomputes() int { return dm.recomputes }
