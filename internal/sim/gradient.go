package sim

import (
	"math"

	"gcs/internal/dyngraph"
)

// GradientChecker verifies the paper's Section 5 gradient property over
// a live execution: at every skew sample it buckets |L_u - L_v| over
// node pairs by their current hop distance and tracks the running
// maximum per bucket, so the result is the observed local skew as a
// function of distance — checked per sample across the whole run, not
// just at the single worst edge.
//
// The checker has two cost axes, both set from the Config:
//
//   - radius (Config.GradientRadius): 0 checks all pairs at exact
//     distances from a lazily revalidated DistanceMatrix (O(n²) memory,
//     n² pair reads per sample); r > 0 checks only pairs within r hops
//     from a radius-capped BoundedDistances (O(n·k) memory for ball
//     size k, n·k pair reads per sample). The gradient property is a
//     per-distance bound, so truncating at r verifies exactly the
//     buckets 1..r and simply leaves the rest empty.
//   - sources (Config.GradientSources): 0 checks every node as a pair
//     source; s > 0 checks only s evenly spaced source nodes — a
//     deterministic function of (n, s), so reports stay pure functions
//     of the Config.
//
// Either structure is revalidated lazily (one BFS sweep per
// topology-change epoch), and the per-sample path allocates nothing in
// steady state.
type GradientChecker struct {
	// Exactly one of dm/bd is non-nil: dm for exact all-distance
	// checking, bd for radius-capped checking.
	dm *dyngraph.DistanceMatrix
	bd *dyngraph.BoundedDistances
	// srcs lists the source nodes checked per sample; nil means all.
	srcs []int32
	n    int
	// maxByDist[d] is the largest |L_u - L_v| seen over any pair at
	// current distance d; index 0 is unused (a pair at distance 0 is the
	// same node).
	maxByDist []float64
	// maxDist is the largest bucket with data so far.
	maxDist int
	samples int
	// recomputeBase offsets the distance structure's cumulative BFS
	// count so Recomputes stays per-run when the checker is reused
	// across runs.
	recomputeBase int
}

// newGradientChecker sizes a checker for n nodes. radius 0 means exact
// all-distance checking; sources 0 means every node is a pair source.
func newGradientChecker(n, radius, sources int) *GradientChecker {
	gc := &GradientChecker{
		n:         n,
		maxByDist: make([]float64, n),
	}
	if radius > 0 {
		gc.bd = dyngraph.NewBoundedDistances(n, radius)
	} else {
		gc.dm = dyngraph.NewDistanceMatrix(n)
	}
	if sources > 0 && sources < n {
		gc.srcs = make([]int32, sources)
		for i := range gc.srcs {
			// Evenly spaced: deterministic in (n, sources) alone.
			gc.srcs[i] = int32(i * n / sources)
		}
	}
	return gc
}

// nodes returns the node count the checker was sized for.
func (gc *GradientChecker) nodes() int { return gc.n }

// shape reports the (radius, sources) pair the checker was built for,
// so wire() can decide whether a cached checker still fits the config.
func (gc *GradientChecker) shape() (radius, sources int) {
	if gc.bd != nil {
		radius = gc.bd.Radius()
	}
	return radius, len(gc.srcs)
}

// reset clears the buckets for a new run over the same shape, keeping
// the distance structure's storage warm (the graph's epoch only grows
// across arena resets, so stale cached distances revalidate on the
// first observe).
func (gc *GradientChecker) reset() {
	for i := range gc.maxByDist {
		gc.maxByDist[i] = 0
	}
	gc.maxDist = 0
	gc.samples = 0
	gc.recomputeBase = gc.structRecomputes()
}

func (gc *GradientChecker) structRecomputes() int {
	if gc.bd != nil {
		return gc.bd.Recomputes()
	}
	return gc.dm.Recomputes()
}

// bucket folds one pair observation at distance d.
//
//gcslint:zeroalloc
func (gc *GradientChecker) bucket(d int, diff float64) {
	if diff > gc.maxByDist[d] {
		gc.maxByDist[d] = diff
		if d > gc.maxDist {
			gc.maxDist = d
		}
	}
}

// observe folds one sample into the buckets: vals[i] is node i's logical
// clock at the sample instant, g supplies the current topology.
//
//gcslint:zeroalloc
func (gc *GradientChecker) observe(g *dyngraph.Dynamic, vals []float64) {
	gc.samples++
	if gc.bd != nil {
		gc.bd.Update(g)
		if gc.srcs != nil {
			for _, u := range gc.srcs {
				gc.observeBall(int(u), vals)
			}
		} else {
			for u := range vals {
				gc.observeBall(u, vals)
			}
		}
		return
	}
	gc.dm.Update(g)
	if gc.srcs != nil {
		for _, u := range gc.srcs {
			gc.observeRow(int(u), vals)
		}
		return
	}
	n := len(vals)
	for u := 0; u < n; u++ {
		row := gc.dm.Row(u)
		lu := vals[u]
		for v := u + 1; v < n; v++ {
			d := int(row[v])
			if d <= 0 {
				continue // disconnected pair this sample
			}
			gc.bucket(d, math.Abs(lu-vals[v]))
		}
	}
}

// observeBall buckets u against every node in its radius-capped ball.
// Pairs with both endpoints in the source set are folded twice; the
// buckets take a max, so the duplicate is harmless.
//
//gcslint:zeroalloc
func (gc *GradientChecker) observeBall(u int, vals []float64) {
	nodes, dists := gc.bd.Ball(u)
	lu := vals[u]
	for i, v := range nodes {
		gc.bucket(int(dists[i]), math.Abs(lu-vals[v]))
	}
}

// observeRow buckets u against every reachable node from its exact
// distance row.
//
//gcslint:zeroalloc
func (gc *GradientChecker) observeRow(u int, vals []float64) {
	row := gc.dm.Row(u)
	lu := vals[u]
	for v, d32 := range row {
		d := int(d32)
		if d <= 0 {
			continue
		}
		gc.bucket(d, math.Abs(lu-vals[v]))
	}
}

// Recomputes returns the number of distance BFS sweeps performed during
// the current run (one per distinct topology epoch observed).
func (gc *GradientChecker) Recomputes() int { return gc.structRecomputes() - gc.recomputeBase }

// PerDistance returns a fresh slice s whose s[d] is the largest
// |L_u - L_v| observed over any pair at current distance d, for d in
// [0, maxDist]; s[0] is always 0. Empty (nil) when no samples had any
// connected pair.
func (gc *GradientChecker) PerDistance() []float64 {
	if gc.maxDist == 0 {
		return nil
	}
	return append([]float64(nil), gc.maxByDist[:gc.maxDist+1]...)
}
