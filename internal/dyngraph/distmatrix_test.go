package dyngraph

import (
	"testing"
)

// TestDistanceMatrixMatchesDistances cross-checks the multi-source BFS
// against the single-source reference on a static graph.
func TestDistanceMatrixMatchesDistances(t *testing.T) {
	n := 12
	edges := Ring(n)
	g := NewDynamic(n, edges)
	dm := NewDistanceMatrix(n)
	if !dm.Update(g) {
		t.Fatal("first Update did not recompute")
	}
	for src := 0; src < n; src++ {
		want := distances(n, edges, src)
		for v, got := range dm.Row(src) {
			if int(got) != want[v] {
				t.Fatalf("dist(%d,%d) = %d, want %d", src, v, got, want[v])
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

// TestDistanceMatrixSteadyStateDoesNotAllocate pins both Update paths:
// the epoch-check fast path and the full BFS recompute reuse the
// matrix's buffers.
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
}
