package dyngraph

import (
	"testing"

	"gcs/internal/des"
)

// randomDynamic builds a Dynamic over n nodes with a ring backbone (so
// it stays connected) plus extra random chords.
func randomDynamic(n int, extra int, r *des.Rand) *Dynamic {
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges, E(i, (i+1)%n))
	}
	for len(edges) < n+extra {
		u, v := r.Intn(n), r.Intn(n)
		if u != v {
			edges = append(edges, E(u, v))
		}
	}
	return NewDynamic(n, edges)
}

// ballDist returns the hop distance between u and v, or -1 when v lies
// outside u's radius-capped ball (farther than the radius, or
// disconnected), by scanning u's ball.
func ballDist(bd *BoundedDistances, u, v int) int {
	if u == v {
		return 0
	}
	nodes, dists := bd.Ball(u)
	for i, w := range nodes {
		if int(w) == v {
			return int(dists[i])
		}
	}
	return -1
}

// TestBoundedDistancesMatchesMatrix cross-checks every stored ball
// entry against the all-pairs matrix, and every matrix entry within the
// radius against the ball — the truncated structure must agree exactly
// with the exact one inside the radius and store nothing outside it.
func TestBoundedDistancesMatchesMatrix(t *testing.T) {
	r := des.NewRand(11)
	for _, n := range []int{2, 7, 32, 64} {
		for _, radius := range []int{1, 2, 3, 8} {
			g := randomDynamic(n, n/2, r)
			dm := NewDistanceMatrix(n)
			dm.Update(g)
			bd := NewBoundedDistances(n, radius)
			bd.Update(g)
			for u := 0; u < n; u++ {
				row := dm.Row(u)
				nodes, dists := bd.Ball(u)
				inBall := make(map[int]int)
				for i, v := range nodes {
					d := int(dists[i])
					if d < 1 || d > radius {
						t.Fatalf("n=%d r=%d: ball of %d stores %d at distance %d", n, radius, u, v, d)
					}
					if d != int(row[v]) {
						t.Fatalf("n=%d r=%d: dist(%d,%d) ball=%d matrix=%d", n, radius, u, v, d, row[v])
					}
					inBall[int(v)] = d
				}
				for v := 0; v < n; v++ {
					if v == u {
						continue
					}
					d := int(row[v])
					if d >= 1 && d <= radius {
						if _, ok := inBall[v]; !ok {
							t.Fatalf("n=%d r=%d: matrix has dist(%d,%d)=%d but ball omits it", n, radius, u, v, d)
						}
					} else if _, ok := inBall[v]; ok {
						t.Fatalf("n=%d r=%d: ball of %d stores %d beyond radius (matrix dist %d)", n, radius, u, v, d)
					}
				}
			}
		}
	}
}

// TestBoundedDistancesLazy pins the epoch-lazy contract shared with
// DistanceMatrix: repeated Updates on an unchanged topology cost one
// compare, a topology change triggers exactly one fresh sweep.
func TestBoundedDistancesLazy(t *testing.T) {
	g := NewDynamic(8, []Edge{E(0, 1), E(1, 2), E(2, 3), E(3, 4)})
	bd := NewBoundedDistances(8, 2)
	if !bd.Update(g) {
		t.Fatal("first Update did not recompute")
	}
	for i := 0; i < 5; i++ {
		if bd.Update(g) {
			t.Fatal("Update recomputed on unchanged topology")
		}
	}
	g.Add(1, E(4, 5))
	if !bd.Update(g) {
		t.Fatal("Update missed a topology change")
	}
	if ballDist(bd, 3, 5) != 2 {
		t.Fatalf("dist(3,5) = %d after edge add, want 2", ballDist(bd, 3, 5))
	}
	if bd.Recomputes() != 2 {
		t.Fatalf("Recomputes = %d, want 2", bd.Recomputes())
	}
}

// TestBoundedDistancesMemoryIsBallSized pins the O(n·k) footprint: on a
// ring, every radius-r ball holds exactly 2r nodes (r each way), so the
// stored pair count is n*2r however large n grows — not n².
func TestBoundedDistancesMemoryIsBallSized(t *testing.T) {
	const n, radius = 512, 3
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges, E(i, (i+1)%n))
	}
	g := NewDynamic(n, edges)
	bd := NewBoundedDistances(n, radius)
	bd.Update(g)
	if want := n * 2 * radius; len(bd.nodes) != want {
		t.Fatalf("stored pairs = %d, want %d (= n * 2r)", len(bd.nodes), want)
	}
}

// TestBoundedDistancesDisconnected pins that balls do not cross
// connected components.
func TestBoundedDistancesDisconnected(t *testing.T) {
	g := NewDynamic(4, []Edge{E(0, 1), E(2, 3)})
	bd := NewBoundedDistances(4, 3)
	bd.Update(g)
	if d := ballDist(bd, 0, 2); d != -1 {
		t.Fatalf("dist(0,2) = %d across components, want -1", d)
	}
	if d := ballDist(bd, 0, 1); d != 1 {
		t.Fatalf("dist(0,1) = %d, want 1", d)
	}
}
