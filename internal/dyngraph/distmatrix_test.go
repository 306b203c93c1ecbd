package dyngraph

import (
	"fmt"
	"math"
	"testing"

	"gcs/internal/des"
)

// TestDistanceMatrixMatchesDistances cross-checks the bit-parallel
// multi-source BFS against the single-source reference, entry for
// entry, at node counts on both sides of the 64-source batch boundary
// (one partial batch, exactly one, one plus one source, several with a
// partial last). Each count runs the static shapes, then a seeded run of
// edge toggles on the sparse graph with an Update after each, so stale
// columns from an earlier recompute or batch would show.
func TestDistanceMatrixMatchesDistances(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130, 257} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			w := 1
			for x := 1; x*x <= n; x++ {
				if n%x == 0 {
					w = x
				}
			}
			ring := Line(n) // the ring of fewer than three nodes
			if n >= 3 {
				ring = Ring(n)
			}
			for _, s := range []struct {
				name  string
				edges []Edge
			}{
				{"ring", ring},
				{"line", Line(n)},
				{"grid", Grid(w, n/w)},
				{"star", Star(n)},
				{"sparse", sparseEdges(n, des.NewRand(uint64(n)))},
			} {
				g := NewDynamic(n, s.edges)
				dm := NewDistanceMatrix(n)
				if !dm.Update(g) {
					t.Fatalf("%s: first Update did not recompute", s.name)
				}
				checkMatrix(t, s.name, dm, g)
			}

			// Toggle random pairs of the sparse graph; a removal can split
			// a component and an addition can join two.
			r := des.NewRand(uint64(7 * n))
			g := NewDynamic(n, sparseEdges(n, r))
			dm := NewDistanceMatrix(n)
			dm.Update(g)
			for step := 1; n > 1 && step <= 40; step++ {
				u, v := r.Intn(n), r.Intn(n)
				if u == v {
					continue
				}
				if e, at := E(u, v), float64(step); g.Present(e) {
					g.Remove(at, e)
				} else {
					g.Add(at, e)
				}
				if !dm.Update(g) {
					t.Fatalf("step %d: Update ignored an epoch change", step)
				}
				checkMatrix(t, fmt.Sprintf("step %d", step), dm, g)
			}
		})
	}
}

// sparseEdges returns about n/2 random edges among the first 3n/4 nodes:
// the rest are isolated, so for n >= 2 the graph has at least two
// components, and the edges alone usually form several more.
func sparseEdges(n int, r *des.Rand) []Edge {
	m := n - max(1, n/4)
	var edges []Edge
	for i := 0; m > 1 && i < n/2; i++ {
		if u, v := r.Intn(m), r.Intn(m); u != v {
			edges = append(edges, E(u, v))
		}
	}
	return edges
}

// checkMatrix asserts that dm, just updated against g, holds the
// single-source reference distance at every entry, is symmetric and has
// a zero diagonal.
func checkMatrix(t *testing.T, label string, dm *DistanceMatrix, g *Dynamic) {
	t.Helper()
	n := g.N()
	var edges []Edge
	g.RangeCurrentEdges(func(e Edge) { edges = append(edges, e) })
	for u := 0; u < n; u++ {
		row, want := dm.Row(u), distances(n, edges, u)
		if row[u] != 0 {
			t.Fatalf("%s: dist(%d,%d) = %d, want 0", label, u, u, row[u])
		}
		for v, got := range row {
			if int(got) != want[v] {
				t.Fatalf("%s: dist(%d,%d) = %d, want %d", label, u, v, got, want[v])
			}
			if back := dm.Row(v)[u]; back != got {
				t.Fatalf("%s: dist(%d,%d) = %d but dist(%d,%d) = %d", label, u, v, got, v, u, back)
			}
		}
	}
}

// distances returns BFS hop distances from src in the static graph;
// unreachable nodes get -1. This is the paper's dist(src, v), the
// single-source reference the matrix is checked against.
func distances(n int, edges []Edge, src int) []int {
	dist := make([]int, n)
	bfs(Adjacency(n, edges), src, dist, make([]int, 0, n))
	return dist
}

// TestDistanceMatrixInvalidationAcrossEpochs pins the laziness contract:
// Update recomputes exactly once per topology-change epoch and tracks
// the current edge set across adds and removes.
func TestDistanceMatrixInvalidationAcrossEpochs(t *testing.T) {
	g := NewDynamic(6, Line(6))
	dm := NewDistanceMatrix(6)
	dm.Update(g)
	if dm.Row(0)[5] != 5 {
		t.Fatalf("line dist(0,5) = %d, want 5", dm.Row(0)[5])
	}
	// Unchanged topology: revalidation is free.
	for i := 0; i < 3; i++ {
		if dm.Update(g) {
			t.Fatal("Update recomputed with no topology change")
		}
	}
	if dm.Recomputes() != 1 {
		t.Fatalf("recomputes = %d, want 1", dm.Recomputes())
	}

	// A shortcut edge must shrink the distance after one revalidation.
	g.Add(1, E(0, 5))
	if !dm.Update(g) {
		t.Fatal("Update ignored an epoch change")
	}
	if dm.Row(0)[5] != 1 {
		t.Fatalf("after shortcut, dist(0,5) = %d, want 1", dm.Row(0)[5])
	}

	// Disconnecting restores -1 for cross-component pairs.
	g.Remove(2, E(0, 5))
	g.Remove(2, E(2, 3))
	dm.Update(g)
	if dm.Row(0)[5] != -1 {
		t.Fatalf("disconnected dist(0,5) = %d, want -1", dm.Row(0)[5])
	}
	if dm.Row(0)[2] != 2 || dm.Row(3)[5] != 2 {
		t.Fatal("intra-component distances wrong after split")
	}
	// A no-op Remove must not bump the epoch or force a recompute.
	before := g.Epoch()
	g.Remove(3, E(0, 5))
	if g.Epoch() != before {
		t.Fatal("no-op Remove changed the epoch")
	}
	if dm.Update(g) {
		t.Fatal("Update recomputed after a no-op Remove")
	}
}

// TestDistanceMatrixSteadyStateDoesNotAllocate pins both Update paths
// and Fold: the epoch-check fast path, the full BFS recompute and the
// fold (its sort included) reuse the matrix's buffers.
func TestDistanceMatrixSteadyStateDoesNotAllocate(t *testing.T) {
	n := 16
	g := NewDynamic(n, Ring(n))
	dm := NewDistanceMatrix(n)
	dm.Update(g)
	if allocs := testing.AllocsPerRun(100, func() { dm.Update(g) }); allocs > 0 {
		t.Errorf("no-change Update allocated %v objects/op", allocs)
	}
	// Force real recomputes by alternating an extra edge. The graph's own
	// Add/Remove bookkeeping (interval history) may allocate; the matrix
	// recompute itself must not, which the budget of <1 alloc/op pins
	// (history appends amortize to ~0 with slice reuse after the first
	// few toggles).
	e := E(0, 8)
	g.Add(10, e)
	dm.Update(g)
	g.Remove(11, e)
	dm.Update(g)
	base := testing.AllocsPerRun(50, func() {
		g.Add(g.lastT, e)
		g.Remove(g.lastT, e)
	})
	withUpdate := testing.AllocsPerRun(50, func() {
		g.Add(g.lastT, e)
		dm.Update(g)
		g.Remove(g.lastT, e)
		dm.Update(g)
	})
	if extra := withUpdate - base; extra > 0 {
		t.Errorf("BFS recompute allocated %v objects/op beyond graph bookkeeping", extra)
	}
	vals, buckets := make([]float64, n), make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 5)
	}
	vals[3] = math.NaN()
	withFold := testing.AllocsPerRun(50, func() {
		g.Add(g.lastT, e)
		dm.Fold(g, vals, buckets)
		g.Remove(g.lastT, e)
		dm.Fold(g, vals, buckets)
	})
	if extra := withFold - base; extra > 0 {
		t.Errorf("Fold allocated %v objects/op beyond graph bookkeeping", extra)
	}
}

// scanPairs is the gradient checker's per-sample pass over a built
// matrix, the oracle Fold is held to: every pair u < v at distance
// d >= 1 raises maxByDist[d] to |vals[u] − vals[v]| where that is
// larger. It returns the largest d it raised (0 for none).
func scanPairs(dm *DistanceMatrix, vals, maxByDist []float64) (raised int) {
	for u := range vals {
		row, lu := dm.Row(u), vals[u]
		for v := u + 1; v < len(vals); v++ {
			if d := int(row[v]); d > 0 {
				if diff := math.Abs(lu - vals[v]); diff > maxByDist[d] {
					maxByDist[d], raised = diff, max(raised, d)
				}
			}
		}
	}
	return raised
}
