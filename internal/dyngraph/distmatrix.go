package dyngraph

import "math/bits"

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
type DistanceMatrix struct {
	n    int
	dist []int32 // n*n row-major; -1 for unreachable pairs
	// marks is each node's BFS state for the batch in flight.
	marks []sourceBits
	// frontier lists the nodes of the current layer; touched collects
	// the next layer's, each once. Both have room for n+1 (see sweep).
	frontier, touched []int32
	epoch             uint64
	valid             bool
	// recomputes counts all-pairs recomputes, so tests can pin laziness.
	recomputes int
}

// sourceBits is one node's BFS state, bit i standing for source base+i
// of the batch in flight. The three words sit together so a visit to a
// node touches one cache line.
type sourceBits struct {
	seen  uint64 // sources that have reached the node
	visit uint64 // sources whose current layer holds it; read for frontier nodes only
	next  uint64 // sources that reach it in the layer being built
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
	if dm.valid && g.Epoch() == dm.epoch {
		return false
	}
	for base := 0; base < dm.n; base += batch {
		dm.sweep(g.adj, base, min(batch, dm.n-base))
	}
	dm.epoch = g.Epoch()
	dm.valid = true
	dm.recomputes++
	return true
}

// sweep fills columns base..base+k-1 of every row by one BFS from
// sources base..base+k-1 at once. The matrix is symmetric, so a node w
// that gains sources at depth d writes d into its own row at their
// columns: contiguous writes. A layer costs the arcs out of its frontier
// plus one pass over the nodes they reached.
//
//gcslint:zeroalloc
func (dm *DistanceMatrix) sweep(adj [][]int, base, k int) {
	n, dist, marks := dm.n, dm.dist, dm.marks
	frontier, touched := dm.frontier[:0], dm.touched[:n+1]
	for i := 0; i < k; i++ {
		s := base + i
		marks[s].seen, marks[s].visit = 1<<i, 1<<i
		dist[s*n+s] = 0
		frontier = append(frontier, int32(s))
	}
	for d := int32(1); len(frontier) > 0; d++ {
		// Whether an arc gains anything is data a branch predictor
		// cannot learn, so this loop has no branch: every target takes
		// the next touched slot, which is kept only when the target
		// gains its first bits of the layer. At most n targets are
		// kept and the spare slot takes the last write.
		nt := 0
		for _, u := range frontier {
			bu := marks[u].visit
			for _, v := range adj[u] {
				m := &marks[v]
				gain := bu &^ m.seen
				old := m.next
				m.next = old | gain
				touched[nt] = int32(v)
				nt += isZero(old) &^ isZero(old|gain)
			}
		}
		for _, w := range touched[:nt] {
			m := &marks[w]
			gain := m.next
			m.seen |= gain
			m.visit, m.next = gain, 0
			row := dist[int(w)*n+base : int(w)*n+base+k]
			for ; gain != 0; gain &= gain - 1 {
				row[bits.TrailingZeros64(gain)] = d
			}
		}
		frontier, touched = touched[:nt], frontier[:n+1]
	}
	all := ^uint64(0) >> (batch - k)
	for w := range marks {
		if miss := all &^ marks[w].seen; miss != 0 {
			row := dist[w*n+base : w*n+base+k]
			for ; miss != 0; miss &= miss - 1 {
				row[bits.TrailingZeros64(miss)] = -1
			}
		}
		marks[w].seen = 0
	}
}

// isZero returns 1 if x is zero and 0 otherwise, without a branch: the
// top bit of ^x & (x-1) is set only when x is zero.
func isZero(x uint64) int { return int((^x & (x - 1)) >> 63) }

// Row returns the distances from u to every node (-1 for unreachable).
// The slice aliases the matrix and is valid until the next Update.
func (dm *DistanceMatrix) Row(u int) []int32 {
	if !dm.valid {
		panic("dyngraph: DistanceMatrix read before first Update")
	}
	return dm.dist[u*dm.n : (u+1)*dm.n]
}

// Recomputes returns the number of all-pairs recomputes performed, for
// asserting that revalidation is lazy.
func (dm *DistanceMatrix) Recomputes() int { return dm.recomputes }
