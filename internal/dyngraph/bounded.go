package dyngraph

// BoundedDistances caches radius-capped hop distances over a Dynamic
// graph's current edge set: for every source u it stores the ball of
// nodes within the given radius, in CSR form (one offsets slice, one
// concatenated members slice). Where DistanceMatrix costs O(n²) memory
// and an all-pairs recompute per topology epoch (a BFS from every node,
// 64 sources at a time, each reaching its whole component),
// BoundedDistances costs O(n·k) for ball size k and runs one
// single-source BFS per node, stopped at the radius — the structure
// behind neighborhood-capped gradient checking at scales where the
// all-pairs matrix stops fitting. Like DistanceMatrix it is
// epoch-lazy (one integer compare per Update while the topology is
// unchanged) and allocation-free in steady state once the CSR arrays
// have grown to the workload's ball sizes.
type BoundedDistances struct {
	n      int
	radius int
	// CSR storage: ball u occupies nodes[offsets[u]:offsets[u+1]] and
	// dists likewise; the source itself (distance 0) is not stored.
	offsets []int32
	nodes   []int32
	dists   []int32
	// seen is the per-node visit stamp; bumping stamp invalidates all
	// marks at once, so the scratch is never cleared.
	seen  []uint32
	stamp uint32
	queue []int32
	epoch uint64
	valid bool
	// recomputes counts full sweeps, so tests can pin laziness.
	recomputes int
}

// NewBoundedDistances returns a structure for graphs over n nodes,
// truncating every ball at the given radius (in hops, >= 1). It holds
// no distances until the first Update.
func NewBoundedDistances(n, radius int) *BoundedDistances {
	if n < 1 {
		panic("dyngraph: BoundedDistances needs at least one node")
	}
	if radius < 1 {
		panic("dyngraph: BoundedDistances needs radius >= 1")
	}
	return &BoundedDistances{
		n:       n,
		radius:  radius,
		offsets: make([]int32, n+1),
		seen:    make([]uint32, n),
		queue:   make([]int32, 0, n),
	}
}

// Radius returns the truncation radius the structure was built with.
func (bd *BoundedDistances) Radius() int { return bd.radius }

// Update revalidates the balls against g's current edge set: a no-op
// while g.Epoch() matches the epoch of the last recompute, a full
// truncated-BFS sweep otherwise. It reports whether a recompute
// happened. The graph must have the node count the structure was sized
// for.
func (bd *BoundedDistances) Update(g *Dynamic) bool {
	if g.N() != bd.n {
		panic("dyngraph: BoundedDistances node count mismatch")
	}
	if bd.valid && g.Epoch() == bd.epoch {
		return false
	}
	bd.nodes = bd.nodes[:0]
	bd.dists = bd.dists[:0]
	for src := 0; src < bd.n; src++ {
		bd.offsets[src] = int32(len(bd.nodes))
		bd.ballFrom(g, src)
	}
	bd.offsets[bd.n] = int32(len(bd.nodes))
	bd.epoch = g.Epoch()
	bd.valid = true
	bd.recomputes++
	return true
}

// ballFrom appends src's radius-capped ball (excluding src itself) to
// the CSR arrays via truncated BFS.
func (bd *BoundedDistances) ballFrom(g *Dynamic, src int) {
	bd.stamp++
	bd.seen[src] = bd.stamp
	q := append(bd.queue[:0], int32(src))
	// dist of queue entries is implied by BFS frontier layering: track
	// the index where the current layer ends.
	depth := 0
	layerEnd := len(q)
	for head := 0; head < len(q); head++ {
		if head == layerEnd {
			depth++
			layerEnd = len(q)
		}
		if depth == bd.radius {
			break
		}
		u := q[head]
		for _, v := range g.adj[u] {
			if bd.seen[v] != bd.stamp {
				bd.seen[v] = bd.stamp
				bd.nodes = append(bd.nodes, int32(v))
				bd.dists = append(bd.dists, int32(depth+1))
				q = append(q, int32(v))
			}
		}
	}
	bd.queue = q[:0]
}

// Ball returns the nodes within the radius of u (excluding u itself)
// and their distances, in BFS layer order. Both slices alias internal
// storage and are valid until the next Update. Update must have run at
// least once.
func (bd *BoundedDistances) Ball(u int) (nodes, dists []int32) {
	if !bd.valid {
		panic("dyngraph: BoundedDistances read before first Update")
	}
	lo, hi := bd.offsets[u], bd.offsets[u+1]
	return bd.nodes[lo:hi], bd.dists[lo:hi]
}

// Recomputes returns the number of full truncated-BFS sweeps performed,
// for asserting that revalidation is lazy.
func (bd *BoundedDistances) Recomputes() int { return bd.recomputes }
