package dyngraph

// DistanceMatrix caches all-pairs hop distances over a Dynamic graph's
// current edge set. It exists for per-sample consumers — the gradient
// checker reads dist(u, v) for every node pair at every skew sample —
// so the design goals are (a) zero steady-state allocation: the flat
// n*n matrix and the BFS queue are allocated once at construction and
// reused by every recompute, and (b) lazy revalidation: Update costs
// one integer epoch compare while the topology is unchanged and one
// multi-source BFS sweep per topology-change epoch otherwise.
type DistanceMatrix struct {
	n    int
	dist []int32 // n*n row-major; -1 for unreachable pairs
	// queue is the shared BFS scratch, reused across all n sources.
	queue []int32
	epoch uint64
	valid bool
	// recomputes counts full BFS sweeps, so tests can pin laziness.
	recomputes int
}

// NewDistanceMatrix returns a matrix for graphs over n nodes. It holds
// no distances until the first Update.
func NewDistanceMatrix(n int) *DistanceMatrix {
	if n < 1 {
		panic("dyngraph: DistanceMatrix needs at least one node")
	}
	return &DistanceMatrix{
		n:     n,
		dist:  make([]int32, n*n),
		queue: make([]int32, 0, n),
	}
}

// Update revalidates the matrix against g's current edge set: a no-op
// while g.Epoch() matches the epoch of the last recompute, a full
// multi-source BFS sweep otherwise. It reports whether a recompute
// happened. The graph must have the node count the matrix was sized for.
func (dm *DistanceMatrix) Update(g *Dynamic) bool {
	if g.N() != dm.n {
		panic("dyngraph: DistanceMatrix node count mismatch")
	}
	if dm.valid && g.Epoch() == dm.epoch {
		return false
	}
	for src := 0; src < dm.n; src++ {
		dm.bfsFrom(g, src)
	}
	dm.epoch = g.Epoch()
	dm.valid = true
	dm.recomputes++
	return true
}

// bfsFrom fills row src of the matrix from g's current adjacency.
func (dm *DistanceMatrix) bfsFrom(g *Dynamic, src int) {
	row := dm.dist[src*dm.n : (src+1)*dm.n]
	for i := range row {
		row[i] = -1
	}
	row[src] = 0
	q := append(dm.queue[:0], int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		for _, v := range g.adj[u] {
			if row[v] < 0 {
				row[v] = row[u] + 1
				q = append(q, int32(v))
			}
		}
	}
	dm.queue = q[:0]
}

// Row returns the distances from u to every node (-1 for unreachable).
// The slice aliases the matrix and is valid until the next Update.
func (dm *DistanceMatrix) Row(u int) []int32 {
	if !dm.valid {
		panic("dyngraph: DistanceMatrix read before first Update")
	}
	return dm.dist[u*dm.n : (u+1)*dm.n]
}

// Recomputes returns the number of full BFS sweeps performed, for
// asserting that revalidation is lazy.
func (dm *DistanceMatrix) Recomputes() int { return dm.recomputes }
