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
