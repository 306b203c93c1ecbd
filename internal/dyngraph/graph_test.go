package dyngraph

import (
	"math"
	"reflect"
	"testing"

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
	// Remove closes the edge's last interval; the history must still
	// answer ExistsThroughout for the past.
	g := NewDynamic(3, []Edge{E(0, 1)})
	g.Remove(5, E(0, 1))
	if g.Present(E(0, 1)) {
		t.Fatal("edge still present after removal")
	}
	if !g.ExistsThroughout(E(0, 1), 3, 3) {
		t.Fatal("history lost: edge existed at t=3")
	}
	if g.ExistsThroughout(E(0, 1), 5, 5) {
		t.Fatal("half-open interval violated: edge removed at t=5 is not in E(5)")
	}
	if !g.ExistsThroughout(E(0, 1), 0, 4) {
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
	g.Remove(1, E(1, 2))
	g.Add(2, E(0, 3))
	want := []Edge{{0, 1}, {0, 3}, {2, 3}}
	if got := g.EdgesThroughout(2, 2); !reflect.DeepEqual(got, want) {
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

// existsThroughoutForward is the oldest-first scan ExistsThroughout used
// to be, kept as the reference for the newest-first early exit.
func existsThroughoutForward(g *Dynamic, e Edge, t1, t2 float64) bool {
	for _, iv := range g.hist[e] {
		if iv.Covers(t1, t2) {
			return true
		}
	}
	return false
}

// TestExistsThroughoutMatchesForwardScan builds seeded add/remove
// histories (same-instant flaps included, which leave empty intervals)
// and compares ExistsThroughout with the reference on queries that start
// and end at, just before, just after and across every interval end, and
// on random ones.
func TestExistsThroughoutMatchesForwardScan(t *testing.T) {
	const n = 4
	for seed := uint64(1); seed <= 8; seed++ {
		rnd := des.NewRand(seed)
		g := NewDynamic(n, Ring(n))
		now := 0.0
		for step := 0; step < 200; step++ {
			if !rnd.Bool(0.15) { // otherwise: a second event at the same instant
				now += rnd.Range(0.01, 1)
			}
			u := rnd.Intn(n)
			e := E(u, (u+1+rnd.Intn(n-1))%n)
			if g.Present(e) {
				g.Remove(now, e)
			} else {
				g.Add(now, e)
			}
		}
		queries, hits := 0, 0
		check := func(e Edge, t1, t2 float64) {
			t.Helper()
			if t1 > t2 {
				return
			}
			got, want := g.ExistsThroughout(e, t1, t2), existsThroughoutForward(g, e, t1, t2)
			if got != want {
				t.Fatalf("seed %d: ExistsThroughout(%v, %v, %v) = %v, forward scan %v (history %v)",
					seed, e, t1, t2, got, want, g.hist[e])
			}
			queries++
			if got {
				hits++
			}
		}
		const eps = 1e-9
		for e, ivs := range g.hist {
			var marks []float64
			for _, iv := range ivs {
				for _, m := range []float64{iv.Start, iv.End} {
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
