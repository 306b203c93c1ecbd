package sim

import (
	"math"

	"gcs/internal/dyngraph"
)

// GradientChecker verifies the paper's Section 5 gradient property over
// a live execution: at every skew sample it buckets |L_u - L_v| over
// every node pair by its current hop distance and tracks the running
// maximum per bucket, so the result is the observed local skew as a
// function of distance — checked per sample across the whole run, not
// just at the single worst edge. The property bounds every pair at every
// distance, so the check is exact: all n(n-1)/2 pairs, each at its exact
// distance from a DistanceMatrix (O(n²) memory) that revalidates lazily,
// one all-pairs recompute per topology-change epoch. The per-sample path
// allocates nothing in steady state.
type GradientChecker struct {
	dm *dyngraph.DistanceMatrix
	// maxByDist[d] is the largest |L_u - L_v| seen over any pair at
	// current distance d; index 0 is unused (a pair at distance 0 is the
	// same node). Its length is the node count the checker was sized for.
	maxByDist []float64
	// maxDist is the largest bucket with data so far.
	maxDist int
	samples int
	// recomputeBase offsets the matrix's cumulative recompute count so
	// Recomputes stays per-run when the checker is reused across runs.
	recomputeBase int
}

// newGradientChecker sizes a checker for n nodes.
func newGradientChecker(n int) *GradientChecker {
	return &GradientChecker{
		dm:        dyngraph.NewDistanceMatrix(n),
		maxByDist: make([]float64, n),
	}
}

// reset clears the buckets for a new run over the same node count,
// keeping the matrix's storage warm (the graph's epoch only grows across
// arena resets, so stale cached distances revalidate on the first
// observe).
func (gc *GradientChecker) reset() {
	for i := range gc.maxByDist {
		gc.maxByDist[i] = 0
	}
	gc.maxDist = 0
	gc.samples = 0
	gc.recomputeBase = gc.dm.Recomputes()
}

// observe folds one sample into the buckets: vals[i] is node i's logical
// clock at the sample instant, g supplies the current topology.
//
//gcslint:zeroalloc
func (gc *GradientChecker) observe(g *dyngraph.Dynamic, vals []float64) {
	gc.samples++
	gc.dm.Update(g)
	n := len(vals)
	for u := 0; u < n; u++ {
		row := gc.dm.Row(u)
		lu := vals[u]
		for v := u + 1; v < n; v++ {
			d := int(row[v])
			if d <= 0 {
				continue // disconnected pair this sample
			}
			// A crashed endpoint reads NaN, which fails the comparison.
			if diff := math.Abs(lu - vals[v]); diff > gc.maxByDist[d] {
				gc.maxByDist[d] = diff
				gc.maxDist = max(gc.maxDist, d)
			}
		}
	}
}

// Recomputes returns the number of all-pairs distance recomputes during
// the current run (one per distinct topology epoch observed).
func (gc *GradientChecker) Recomputes() int { return gc.dm.Recomputes() - gc.recomputeBase }

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
