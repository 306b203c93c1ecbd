package dyngraph

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"gcs/internal/des"
)

func TestNeighborsTrackAddsAndRemoves(t *testing.T) {
	g := NewDynamic(5, []Edge{E(0, 2), E(0, 1)})
	if got := g.AppendNeighbors(0, nil); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("neighbors of 0 = %v, want [1 2]", got)
	}
	g.Add(1, E(0, 4))
	g.Add(1, E(3, 4))
	if got := g.AppendNeighbors(0, nil); !reflect.DeepEqual(got, []int{1, 2, 4}) {
		t.Fatalf("neighbors of 0 after add = %v, want [1 2 4]", got)
	}
	g.Remove(2, E(0, 2))
	if got := g.AppendNeighbors(0, nil); !reflect.DeepEqual(got, []int{1, 4}) {
		t.Fatalf("neighbors of 0 after remove = %v, want [1 4]", got)
	}
	if got := g.AppendNeighbors(2, nil); len(got) != 0 {
		t.Fatalf("neighbors of 2 = %v, want none", got)
	}
	// Re-adding the removed edge restores adjacency.
	g.Add(3, E(0, 2))
	if got := g.AppendNeighbors(2, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Fatalf("neighbors of 2 after re-add = %v, want [0]", got)
	}
}

func TestHistorySurvivesPresenceDeletion(t *testing.T) {
	// Remove closes the edge's last interval; an attached History must
	// still answer ExistsThroughout for the past.
	g := NewDynamic(3, []Edge{E(0, 1)})
	h := NewHistory(g)
	g.Remove(5, E(0, 1))
	if g.Present(E(0, 1)) {
		t.Fatal("edge still present after removal")
	}
	if !h.ExistsThroughout(E(0, 1), 3, 3) {
		t.Fatal("history lost: edge existed at t=3")
	}
	if h.ExistsThroughout(E(0, 1), 5, 5) {
		t.Fatal("half-open interval violated: edge removed at t=5 is not in E(5)")
	}
	if !h.ExistsThroughout(E(0, 1), 0, 4) {
		t.Fatal("edge existed throughout [0,4]")
	}
	adds, removes := g.Stats()
	if adds != 0 || removes != 1 {
		t.Fatalf("stats = (%d, %d), want (0, 1)", adds, removes)
	}
}

// TestCurrentEdgesAfterChurn reads E(t) as the degenerate window
// E|[t,t]: after a removal and an addition it is exactly the present
// edges, sorted.
func TestCurrentEdgesAfterChurn(t *testing.T) {
	g := NewDynamic(4, Line(4))
	h := NewHistory(g)
	g.Remove(1, E(1, 2))
	g.Add(2, E(0, 3))
	want := []Edge{{0, 1}, {0, 3}, {2, 3}}
	if got := h.EdgesThroughout(2, 2); !reflect.DeepEqual(got, want) {
		t.Fatalf("E(2) = %v, want %v", got, want)
	}
}

func TestAppendNeighborsAscendingAndReused(t *testing.T) {
	g := NewDynamic(6, []Edge{E(0, 5), E(0, 1), E(0, 3)})
	buf := make([]int, 0, 8)
	buf = g.AppendNeighbors(0, buf)
	if !reflect.DeepEqual(buf, []int{1, 3, 5}) {
		t.Fatalf("AppendNeighbors = %v, want ascending [1 3 5]", buf)
	}
	g.Add(1, E(0, 2))
	g.Remove(2, E(0, 5))
	buf = g.AppendNeighbors(0, buf[:0])
	if !reflect.DeepEqual(buf, []int{1, 2, 3}) {
		t.Fatalf("AppendNeighbors after churn = %v, want [1 2 3]", buf)
	}
}

func TestRangeCurrentEdgesVisitsExactlyPresentEdges(t *testing.T) {
	g := NewDynamic(4, Line(4))
	g.Remove(1, E(1, 2))
	g.Add(2, E(0, 3))
	seen := map[Edge]int{}
	g.RangeCurrentEdges(func(e Edge) { seen[e]++ })
	want := []Edge{{0, 1}, {0, 3}, {2, 3}}
	if len(seen) != len(want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	for _, e := range want {
		if seen[e] != 1 {
			t.Fatalf("edge %v visited %d times", e, seen[e])
		}
	}
}

// TestPresenceAndOrderMatchModel drives seeded histories of adds,
// removes (same-instant flaps included) and Resets to other node counts
// and initial edge sets (repeats included), and after every step holds
// the graph against an adjacency-matrix model: Present answers the model
// for every pair, RangeCurrentEdges visits exactly the model's edges in
// ascending (U, V) order, and AppendNeighbors lists each node's model
// neighbors in ascending order.
func TestPresenceAndOrderMatchModel(t *testing.T) {
	const maxN = 12
	for seed := uint64(1); seed <= 8; seed++ {
		rnd := des.NewRand(seed)
		var model [maxN][maxN]bool
		n := maxN
		g := NewDynamic(n, nil)
		now := 0.0
		var resets, removes int
		for step := 0; step < 2000; step++ {
			var op string
			if rnd.Bool(0.01) {
				op = "reset"
				resets++
				n = 2 + rnd.Intn(maxN-1)
				model = [maxN][maxN]bool{}
				var initial []Edge
				for k := rnd.Intn(2 * n); k > 0; k-- {
					u := rnd.Intn(n)
					e := E(u, (u+1+rnd.Intn(n-1))%n)
					initial = append(initial, e)
					model[e.U][e.V] = true
				}
				g.Reset(n, initial)
				now = 0
			} else {
				if !rnd.Bool(0.15) { // otherwise: a second event at the same instant
					now += rnd.Range(0.01, 1)
				}
				u := rnd.Intn(n)
				e := E(u, (u+1+rnd.Intn(n-1))%n)
				if model[e.U][e.V] {
					op = "remove"
					removes++
					g.Remove(now, e)
				} else {
					op = "add"
					g.Add(now, e)
				}
				model[e.U][e.V] = !model[e.U][e.V]
			}

			var want []Edge
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if got := g.Present(E(u, v)); got != model[u][v] {
						t.Fatalf("seed %d step %d (%s): Present(%v) = %v, model %v", seed, step, op, E(u, v), got, model[u][v])
					}
					if model[u][v] {
						want = append(want, E(u, v))
					}
				}
			}
			var got []Edge
			g.RangeCurrentEdges(func(e Edge) { got = append(got, e) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (%s): RangeCurrentEdges visited %v, model %v", seed, step, op, got, want)
			}
			for u := 0; u < n; u++ {
				var nbrs []int
				for v := 0; v < n; v++ {
					if v != u && model[min(u, v)][max(u, v)] {
						nbrs = append(nbrs, v)
					}
				}
				if got := g.AppendNeighbors(u, nil); !reflect.DeepEqual(got, nbrs) {
					t.Fatalf("seed %d step %d (%s): AppendNeighbors(%d) = %v, model %v", seed, step, op, u, got, nbrs)
				}
			}
		}
		if resets == 0 || removes == 0 {
			t.Fatalf("seed %d: degenerate history: resets=%d removes=%d", seed, resets, removes)
		}
	}
}

// TestExistsThroughoutMatchesForwardScan builds seeded add/remove
// histories (same-instant flaps included, which leave empty intervals)
// and compares an attached History's ExistsThroughout, which walks the
// edge's records newest-first, with refHistory's oldest-first scan on
// queries that start and end at, just before, just after and across
// every interval end, and on random ones.
func TestExistsThroughoutMatchesForwardScan(t *testing.T) {
	const n = 4
	for seed := uint64(1); seed <= 8; seed++ {
		rnd := des.NewRand(seed)
		g := NewDynamic(n, Ring(n))
		ref, h := newRef(t, g), NewHistory(g)
		now := 0.0
		for step := 0; step < 200; step++ {
			if !rnd.Bool(0.15) { // otherwise: a second event at the same instant
				now += rnd.Range(0.01, 1)
			}
			u := rnd.Intn(n)
			e := E(u, (u+1+rnd.Intn(n-1))%n)
			if g.Present(e) {
				ref.remove(g, now, e)
			} else {
				ref.add(t, g, now, e)
			}
		}
		queries, hits := 0, 0
		check := func(e Edge, t1, t2 float64) {
			t.Helper()
			if t1 > t2 {
				return
			}
			got, want := h.ExistsThroughout(e, t1, t2), ref.existsThroughout(e, t1, t2)
			if got != want {
				t.Fatalf("seed %d: ExistsThroughout(%v, %v, %v) = %v, forward scan %v (history %v)",
					seed, e, t1, t2, got, want, ref.ivs[e])
			}
			queries++
			if got {
				hits++
			}
		}
		const eps = 1e-9
		for e, ivs := range ref.ivs {
			var marks []float64
			for _, iv := range ivs {
				for _, m := range []float64{iv.start, iv.end} {
					if !math.IsInf(m, 1) {
						marks = append(marks, m-eps, m, m+eps)
					}
				}
			}
			for _, t1 := range marks {
				for _, t2 := range marks {
					check(e, t1, t2)
				}
			}
			for i := 0; i < 200; i++ {
				t1 := rnd.Range(0, now+1)
				check(e, t1, t1+rnd.Range(0, 0.5))
			}
		}
		if hits == 0 || hits == queries {
			t.Fatalf("seed %d: degenerate queries: %d of %d true", seed, hits, queries)
		}
	}
}

// TestHubCapacityHandedOver runs rotating stars: each round links the next
// hub to every node, then unlinks the previous hub from all but it. A
// former hub's adjacency array passes to a later hub instead of each hub
// growing its own, so however many rounds run, only a few nodes hold a
// hub-sized array, and a re-run after Reset allocates nothing. After every
// round each node's links hold exactly its model neighbors, ascending,
// each on the edge's open record. It runs from no edges and from the
// first round's star as the initial edge set, whose hub array is carved
// from the cold wiring's slab.
// TestColdResetCarvesOneSlab pins the cold wiring's adjacency: every
// node's array has exactly its initial degree of capacity and follows
// the previous node's in one slab (a repeated initial edge only adds
// room), a warm Reset to the same edges allocates nothing, and a Reset
// to more nodes carves arrays for the new nodes only, leaving the old
// ones where they were.
func TestColdResetCarvesOneSlab(t *testing.T) {
	initial := append(Ring(8), E(0, 1))
	g := NewDynamic(8, initial)
	deg := func(u int) int {
		d := 0
		for _, e := range initial {
			if e.U == u || e.V == u {
				d++
			}
		}
		return d
	}
	at := func(u int) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(g.adj[u]))) }
	for u := 0; u < 8; u++ {
		if cap(g.adj[u]) != deg(u) {
			t.Fatalf("node %d: capacity %d, initial degree %d", u, cap(g.adj[u]), deg(u))
		}
		if u > 0 && at(u) != at(u-1)+uintptr(cap(g.adj[u-1]))*unsafe.Sizeof(Link{}) {
			t.Fatalf("node %d's array does not follow node %d's in one slab", u, u-1)
		}
		want := []int{(u + 7) % 8, (u + 1) % 8}
		slices.Sort(want)
		if got := g.AppendNeighbors(u, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d: neighbors %v, want %v", u, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(3, func() { g.Reset(8, initial) }); allocs != 0 {
		t.Fatalf("a warm Reset allocated %v objects", allocs)
	}
	old := at(3)
	g.Reset(12, Ring(12))
	if at(3) != old {
		t.Fatal("a Reset to more nodes moved an existing node's array")
	}
	for u := 8; u < 12; u++ {
		if cap(g.adj[u]) != 2 || len(g.adj[u]) != 2 {
			t.Fatalf("new node %d: %d links in capacity %d, want 2 in 2", u, len(g.adj[u]), cap(g.adj[u]))
		}
	}
}

// TestReserveCarvesAStar pins Reserve: on a cold graph it gives a star's
// hub and spokes exact-capacity arrays in one slab, keeping any link
// already there, so the star's Adds allocate nothing; on a warm graph it
// allocates nothing and moves no array.
func TestReserveCarvesAStar(t *testing.T) {
	const n = 9
	g := NewDynamic(n, []Edge{E(1, 2)})
	g.Reserve(Star(n))
	for u := 0; u < n; u++ {
		want := 1
		switch u {
		case 0:
			want = n - 1
		case 1, 2:
			want = 2
		}
		if cap(g.adj[u]) != want {
			t.Fatalf("node %d: capacity %d, want %d", u, cap(g.adj[u]), want)
		}
	}
	if !g.Present(E(1, 2)) {
		t.Fatal("Reserve dropped an existing link")
	}
	var at [n]*Link
	for u := range at {
		at[u] = unsafe.SliceData(g.adj[u])
		if u > 0 && uintptr(unsafe.Pointer(at[u])) != uintptr(unsafe.Pointer(at[u-1]))+uintptr(cap(g.adj[u-1]))*unsafe.Sizeof(Link{}) {
			t.Fatalf("node %d's array does not follow node %d's in one slab", u, u-1)
		}
	}
	star := Star(n)
	for _, e := range star {
		g.Add(0, e)
	}
	for u := range at {
		if unsafe.SliceData(g.adj[u]) != at[u] || len(g.adj[u]) != cap(g.adj[u]) {
			t.Fatalf("node %d: the star's Adds regrew its array (%d links in %d)", u, len(g.adj[u]), cap(g.adj[u]))
		}
	}
	hub := at[0]
	if allocs := testing.AllocsPerRun(3, func() { g.Reserve(star) }); allocs != 0 || unsafe.SliceData(g.adj[0]) != hub {
		t.Fatalf("a warm Reserve allocated %v objects or moved the hub's array", allocs)
	}
}

func TestHubCapacityHandedOver(t *testing.T) {
	for _, initial := range [][]Edge{nil, Star(40)} {
		t.Run(fmt.Sprintf("initial=%d", len(initial)), func(t *testing.T) {
			testHubHandOver(t, initial)
		})
	}
}

func testHubHandOver(t *testing.T, initial []Edge) {
	const n, rounds = 40, 30
	g := NewDynamic(n, initial)
	var model [n][n]bool
	now := 0.0
	check := func(r int) {
		t.Helper()
		big := 0
		for u := 0; u < n; u++ {
			var want []int32
			for v := 0; v < n; v++ {
				if model[u][v] {
					want = append(want, int32(v))
				}
			}
			links := g.Links(u)
			if len(links) != len(want) {
				t.Fatalf("round %d: node %d has %d links, model %d", r, u, len(links), len(want))
			}
			for i, k := range links {
				if rec, ok := g.Current(E(u, int(k.V))); k.V != want[i] || !ok || rec != k.Rec || !g.Open(k.Rec) {
					t.Fatalf("round %d: node %d link %d is %+v, model neighbor %d", r, u, i, k, want[i])
				}
			}
			if cap(links) >= spareMin {
				big++
			}
		}
		if big > 2 {
			t.Fatalf("round %d: %d nodes hold %d or more links of capacity", r, big, spareMin)
		}
	}
	run := func(check func(int)) {
		g.Reset(n, initial)
		model, now = [n][n]bool{}, 0
		for _, e := range initial {
			model[e.U][e.V], model[e.V][e.U] = true, true
		}
		for r := 0; r < rounds; r++ {
			now++
			hub := r % n
			for v := 0; v < n; v++ {
				if v != hub {
					g.Add(now, E(hub, v))
					model[hub][v], model[v][hub] = true, true
				}
			}
			if r > 0 {
				old := (r - 1) % n
				for v := 0; v < n; v++ {
					if v != old && v != hub {
						g.Remove(now, E(old, v))
						model[old][v], model[v][old] = false, false
					}
				}
			}
			check(r)
		}
	}
	run(check)
	if allocs := testing.AllocsPerRun(3, func() { run(func(int) {}) }); allocs != 0 {
		t.Fatalf("a re-run after Reset allocated %v objects", allocs)
	}
	run(check)
}
