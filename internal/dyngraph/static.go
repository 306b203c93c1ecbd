package dyngraph

import "slices"

// Static-graph utilities used for connectivity checks, distances (the
// paper's dist(u,v)), and the lower bound's flexible distance.

// Adjacency builds adjacency lists for the static graph (n, edges).
func Adjacency(n int, edges []Edge) [][]int {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	return adj
}

// Connected reports whether the static graph (n >= 1, edges) is
// connected. The empty graph over one node is connected.
func Connected(n int, edges []Edge) bool {
	dist := make([]int, n)
	bfs(Adjacency(n, edges), 0, dist, nil)
	return !slices.Contains(dist, -1)
}

// bfs fills dist with hop distances from src (-1 for unreachable),
// reusing the caller's queue buffer, and returns the eccentricity of src
// (the largest finite distance).
func bfs(adj [][]int, src int, dist, queue []int) int {
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], src)
	ecc := 0
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range adj[u] {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				if dist[v] > ecc {
					ecc = dist[v]
				}
				queue = append(queue, v)
			}
		}
	}
	return ecc
}

// FlexibleDistances returns, for every node v, the minimum number of
// *unconstrained* edges on any path from src to v — the paper's
// dist_M(src, v) for a delay mask whose constrained edge set is
// `constrained` (Definition 4.3). Constrained edges cost 0, unconstrained
// edges cost 1; this is a 0/1-BFS. Unreachable nodes get -1.
func FlexibleDistances(n int, edges []Edge, constrained map[Edge]bool, src int) []int {
	type arc struct{ to, cost int }
	adj := make([][]arc, n)
	for _, e := range edges {
		c := 1
		if constrained[e] {
			c = 0
		}
		adj[e.U] = append(adj[e.U], arc{e.V, c})
		adj[e.V] = append(adj[e.V], arc{e.U, c})
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	// 0/1 BFS with a deque.
	deque := make([]int, 0, n)
	dist[src] = 0
	deque = append(deque, src)
	for len(deque) > 0 {
		u := deque[0]
		deque = deque[1:]
		for _, a := range adj[u] {
			nd := dist[u] + a.cost
			if dist[a.to] == -1 || nd < dist[a.to] {
				dist[a.to] = nd
				if a.cost == 0 {
					deque = append([]int{a.to}, deque...)
				} else {
					deque = append(deque, a.to)
				}
			}
		}
	}
	return dist
}
