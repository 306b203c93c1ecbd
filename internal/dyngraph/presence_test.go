package dyngraph

import (
	"math"
	"slices"
	"testing"

	"gcs/internal/des"
)

// interval is one presence interval [start, end) of the reference
// history, end +Inf while open, with the record id the graph reported
// for it when it opened.
type interval struct {
	start, end float64
	rec        int32
}

// refHistory is the edge history as a per-edge map of presence
// intervals in time order, an edge present exactly when its last
// interval is open. It is the oracle for both halves of the split: the
// graph's present edges and open bits, and an attached History. add and
// remove drive the graph and the reference together.
type refHistory struct {
	ivs map[Edge][]interval
	// opened counts the intervals opened so far: the next record id.
	opened int32
}

// newRef starts a reference from g at time 0, after NewDynamic or
// Reset: its present edges are the initial ones, and they hold the
// first record ids, one each.
func newRef(t testing.TB, g *Dynamic) *refHistory {
	t.Helper()
	h := &refHistory{ivs: map[Edge][]interval{}}
	g.RangeCurrentEdges(func(e Edge) {
		rec, _ := g.Current(e)
		h.ivs[e] = []interval{{0, math.Inf(1), rec}}
		h.opened++
	})
	seen := make([]bool, h.opened)
	for e, ivs := range h.ivs {
		if rec := ivs[0].rec; rec < 0 || rec >= h.opened || seen[rec] {
			t.Fatalf("initial edge %v on record %d, want a distinct id below %d", e, rec, h.opened)
		} else {
			seen[rec] = true
		}
	}
	return h
}

func (h *refHistory) present(e Edge) bool {
	ivs := h.ivs[e]
	return len(ivs) > 0 && math.IsInf(ivs[len(ivs)-1].end, 1)
}

// open records a new interval for e and checks that the graph issued it
// the next record id.
func (h *refHistory) open(t testing.TB, g *Dynamic, at float64, e Edge) {
	t.Helper()
	rec, ok := g.Current(e)
	if !ok || rec != h.opened {
		t.Fatalf("Current(%v) = (%d, %v) after it opened, want record %d", e, rec, ok, h.opened)
	}
	h.ivs[e] = append(h.ivs[e], interval{at, math.Inf(1), rec})
	h.opened++
}

func (h *refHistory) add(t testing.TB, g *Dynamic, at float64, e Edge) {
	t.Helper()
	g.Add(at, e)
	if !h.present(e) {
		h.open(t, g, at, e)
	}
}

func (h *refHistory) remove(g *Dynamic, at float64, e Edge) {
	g.Remove(at, e)
	if h.present(e) {
		h.ivs[e][len(h.ivs[e])-1].end = at
	}
}

// existsThroughout is the oldest-first scan: some interval of e holds
// [t1, t2], start <= t1 and t2 < end.
func (h *refHistory) existsThroughout(e Edge, t1, t2 float64) bool {
	for _, iv := range h.ivs[e] {
		if iv.start <= t1 && t2 < iv.end {
			return true
		}
	}
	return false
}

// eventTimes is the sorted distinct non-zero starts and finite ends.
func (h *refHistory) eventTimes() []float64 {
	var out []float64
	for _, ivs := range h.ivs {
		for _, iv := range ivs {
			if iv.start > 0 {
				out = append(out, iv.start)
			}
			if !math.IsInf(iv.end, 1) {
				out = append(out, iv.end)
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// check holds g and an attached History against the reference: the
// graph's Current, Present and Open for every record id issued, its
// live ExistsThroughout from now, and the History's EventTimes, and its
// ExistsThroughout and EdgesThroughout on the (t1, t2) windows queries.
func (h *refHistory) check(t *testing.T, g *Dynamic, hist *History, now float64, queries [][2]float64) {
	t.Helper()
	n := g.N()
	var current []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			e := E(u, v)
			rec, ok := g.Current(e)
			if want := h.present(e); ok != want || g.Present(e) != want {
				t.Fatalf("Current(%v) present = %v, Present = %v, reference %v", e, ok, g.Present(e), want)
			}
			if ok {
				current = append(current, e)
				if open := h.ivs[e][len(h.ivs[e])-1].rec; rec != open {
					t.Fatalf("Current(%v) = record %d, reference's open record %d", e, rec, open)
				}
			}
			for _, iv := range h.ivs[e] {
				if got, want := g.Open(iv.rec), math.IsInf(iv.end, 1); got != want {
					t.Fatalf("Open(%d) = %v for %v's interval [%v, %v)", iv.rec, got, e, iv.start, iv.end)
				}
			}
			if got, want := g.ExistsThroughout(e, now, now+0.125), h.existsThroughout(e, now, now+0.125); got != want {
				t.Fatalf("live ExistsThroughout(%v, %v, %v) = %v, reference %v", e, now, now+0.125, got, want)
			}
		}
	}
	var visited []Edge
	g.RangeCurrentEdges(func(e Edge) { visited = append(visited, e) })
	if !slices.Equal(visited, current) {
		t.Fatalf("RangeCurrentEdges visited %v, reference %v", visited, current)
	}
	if got, want := hist.EventTimes(), h.eventTimes(); !slices.Equal(got, want) {
		t.Fatalf("EventTimes = %v, reference %v", got, want)
	}
	for _, q := range queries {
		t1, t2 := q[0], q[1]
		var want []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				e := E(u, v)
				if got, ok := hist.ExistsThroughout(e, t1, t2), h.existsThroughout(e, t1, t2); got != ok {
					t.Fatalf("ExistsThroughout(%v, %v, %v) = %v, reference %v (history %v)", e, t1, t2, got, ok, h.ivs[e])
				}
				if h.existsThroughout(e, t1, t2) {
					want = append(want, e)
				}
			}
		}
		if got := hist.EdgesThroughout(t1, t2); !slices.Equal(got, want) {
			t.Fatalf("EdgesThroughout(%v, %v) = %v, reference %v", t1, t2, got, want)
		}
	}
}

// FuzzPresenceLog runs arbitrary Add/Remove/Reset scripts over five
// nodes and, after every step, holds the graph's open bits and an
// attached History against refHistory. The first byte picks the initial
// edges; then each byte pair is one step. A first byte from 250 up is a
// Reset to time 0 whose initial edges the second byte picks, and a new
// History is attached (the old one, still subscribed, must stop
// recording without failing); any other first byte picks an edge and
// Add or Remove (no-ops included), the second how far time moves, in
// quarters, a quarter of the steps not at all, so same-instant flaps and
// repeated times are common. Times and query windows lie on a grid of
// eighths, so windows start and end exactly on interval ends and halfway
// between them.
func FuzzPresenceLog(f *testing.F) {
	f.Add([]byte{0x0f, 0, 0, 10, 0, 0, 0, 3, 1, 13, 2})
	f.Add([]byte{0xff, 10, 1, 0, 0, 10, 0, 20, 3, 1, 0, 11, 0, 1, 0})
	f.Add([]byte{0, 5, 2, 5, 0, 15, 0, 5, 0, 15, 1, 25, 0})
	f.Add([]byte{0x0f, 10, 1, 4, 2, 250, 0x33, 15, 0, 5, 1, 12, 0, 2, 3, 251, 0, 1, 1})
	f.Fuzz(func(t *testing.T, script []byte) {
		const n = 5
		if len(script) == 0 || len(script) > 401 {
			return
		}
		var pairs []Edge
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, E(u, v))
			}
		}
		initial := func(mask byte) []Edge {
			var out []Edge
			for i, e := range pairs[:8] {
				if mask>>i&1 == 1 {
					out = append(out, e)
				}
			}
			return out
		}
		g := NewDynamic(n, initial(script[0]))
		h, hist := newRef(t, g), NewHistory(g)
		rnd := des.NewRand(uint64(len(script)))
		now := 0.0
		for i := 1; i+1 < len(script); i += 2 {
			op, arg := script[i], script[i+1]
			if op >= 250 {
				g.Reset(n, initial(arg))
				now = 0
				h, hist = newRef(t, g), NewHistory(g)
			} else if now += 0.25 * float64(arg%4); op/10%2 == 0 {
				h.add(t, g, now, pairs[int(op)%len(pairs)])
			} else {
				h.remove(g, now, pairs[int(op)%len(pairs)])
			}
			var queries [][2]float64
			for k := 0; k < 4; k++ {
				t1 := 0.125 * float64(rnd.Intn(int(now*8)+4))
				queries = append(queries, [2]float64{t1, t1 + 0.125*float64(rnd.Intn(6))})
			}
			h.check(t, g, hist, now, queries)
		}
	})
}
