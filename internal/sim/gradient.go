package sim

import (
	"fmt"
	"math"
	"strings"

	"gcs/internal/dyngraph"
)

// GradientChecker verifies the paper's Section 5 gradient property over
// a live execution: at every skew sample it buckets |L_u - L_v| over
// every node pair by its current hop distance and tracks the running
// maximum per bucket, so the result is the observed local skew as a
// function of distance — checked per sample across the whole run, not
// just at the single worst edge. The property bounds every pair at every
// distance, so the check is exact: all n(n-1)/2 pairs, each at its exact
// distance from a DistanceMatrix (O(n²) memory). A sample whose topology
// epoch is new is folded inside the matrix's BFS without building it
// (DistanceMatrix.Fold): a churned run changes its epoch between most
// samples, and then a build would be read once. The second sample of an
// epoch builds the matrix and lists its pairs by distance, and every
// later sample of the epoch scans that list. The per-sample path
// allocates nothing in steady state.
type GradientChecker struct {
	dm *dyngraph.DistanceMatrix
	// maxByDist[d] is the largest |L_u - L_v| seen over any pair at
	// current distance d; index 0 is unused (a pair at distance 0 is the
	// same node). Its length is the node count the checker was sized for.
	maxByDist []float64
	// maxDist is the largest bucket with data so far.
	maxDist int
	// pairs lists the built matrix's connected pairs u < v as u<<16 | v,
	// those at distance d in pairs[at[d]:at[d+1]] for d in [1, far].
	pairs []uint32
	at    []int32
	far   int
	// recomputeBase offsets the matrix's cumulative recompute count so
	// Recomputes stays per-run when the checker is reused across runs.
	recomputeBase int
}

// newGradientChecker sizes a checker for n nodes, at most 1<<16 (see
// Config.Validate).
func newGradientChecker(n int) *GradientChecker {
	return &GradientChecker{
		dm:        dyngraph.NewDistanceMatrix(n),
		maxByDist: make([]float64, n),
		pairs:     make([]uint32, n*(n-1)/2),
		at:        make([]int32, n+1),
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
	gc.recomputeBase = gc.dm.Recomputes()
}

// observe folds one sample into the buckets: vals[i] is node i's logical
// clock at the sample instant (NaN while down), g supplies the current
// topology, and spread is the sample's largest live clock less its
// smallest (Fold.Sample's extrema). A distance whose bucket already holds
// the spread is skipped: rounded subtraction is monotone, so no pair's
// difference exceeds it.
//
//gcslint:zeroalloc
func (gc *GradientChecker) observe(g *dyngraph.Dynamic, vals []float64, spread float64) {
	if d, folded := gc.dm.Fold(g, vals, gc.maxByDist); folded {
		gc.maxDist = max(gc.maxDist, d)
		return
	}
	if gc.dm.Update(g) {
		gc.list()
	}
	// A crashed node reads NaN, which fails every comparison, so it
	// raises no bucket; with every node down the spread is -Inf.
	for d := 1; d <= gc.far; d++ {
		top := gc.maxByDist[d]
		if !(spread > top) {
			continue
		}
		m := top
		for _, p := range gc.pairs[gc.at[d]:gc.at[d+1]] {
			if diff := math.Abs(vals[p>>16] - vals[p&0xffff]); diff > m {
				m = diff
			}
		}
		if m > top {
			gc.maxByDist[d] = m
			gc.maxDist = max(gc.maxDist, d)
		}
	}
}

// list fills pairs from the matrix just built: a count of the pairs at
// each distance, then a pass that places each.
//
//gcslint:zeroalloc
func (gc *GradientChecker) list() {
	n, at := len(gc.maxByDist), gc.at
	clear(at)
	for u := 0; u < n; u++ {
		for _, d := range gc.dm.Row(u)[u+1:] {
			if d > 0 {
				at[d+1]++
			}
		}
	}
	gc.far = 0
	for d := 1; d < n; d++ {
		if at[d+1] > 0 {
			gc.far = d
		}
		at[d+1] += at[d]
	}
	for u := 0; u < n; u++ {
		for v, d := range gc.dm.Row(u)[u+1:] {
			if d > 0 {
				gc.pairs[at[d]] = uint32(u)<<16 | uint32(u+1+v)
				at[d]++
			}
		}
	}
	// Placing advanced each at[d] to where group d+1 starts.
	copy(at[1:], at[:n])
}

// Recomputes returns the number of topology epochs the checker met
// during the current run, each by a fold or an all-pairs recompute.
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

// gradientRow is one gradient cell with its per-distance verdict, the
// cell's JSON row.
type gradientRow struct {
	Scenario string  `json:"scenario"`
	Topology string  `json:"topology"`
	Driver   string  `json:"driver"`
	Churn    string  `json:"churn"`
	N        int     `json:"n"`
	MaxDist  int     `json:"max_distance"`
	Samples  int     `json:"samples"`
	Epochs   int     `json:"distance_recomputes"`
	MaxSkew  float64 `json:"max_global_skew"`
	// PerDistanceSkew[d] / PerDistanceBound[d] pair observation and
	// analytic bound; index 0 is the unused distance-0 slot, so JSON
	// consumers index by d directly.
	PerDistanceSkew  []float64 `json:"per_distance_skew"`
	PerDistanceBound []float64 `json:"per_distance_bound"`
	// WorstRatio is max over d of skew(d)/bound(d).
	WorstRatio float64 `json:"worst_ratio"`
	Violated   bool    `json:"violated"`
}

// GradientExperiment is the Section 5 gradient property as an
// experiment: line, ring and grid, a ring under volatile churn and the
// rotating star, each under the bang-bang and random-walk drivers, on
// base's node count and physics with the exact GradientChecker attached.
// A cell fails when its local skew exceeds GradientBound(d) at any
// distance d (re-convergence when faulted); its CSV has one line per d.
func GradientExperiment(base Config) Experiment {
	n, gw := base.N, SquareGridW(base.N)
	shapes := []struct {
		name  string
		topo  TopologySpec
		churn ChurnSpec
	}{
		{"Line", TopologySpec{Kind: TopoLine}, ChurnSpec{}},
		{"Ring", TopologySpec{Kind: TopoRing}, ChurnSpec{}},
		{"Grid", TopologySpec{Kind: TopoGrid, W: gw, H: n / gw}, ChurnSpec{}},
		{"Ring+Volatile", TopologySpec{Kind: TopoRing}, ChurnSpec{Kind: ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: n / 2}},
		{"RotatingStar", TopologySpec{}, ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5}},
	}
	var cells []SweepCell
	for _, sh := range shapes {
		for _, drv := range []DriverSpec{{Kind: DriveBangBang, Interval: 0.7}, {Kind: DriveRandomWalk, Interval: 0.5}} {
			cfg := base
			cfg.Topology, cfg.Driver, cfg.Churn, cfg.CheckGradient = sh.topo, drv, sh.churn, true
			cells = append(cells, SweepCell{Name: fmt.Sprintf("%s/%v", sh.name, drv.Kind), Cfg: cfg})
		}
	}
	return Experiment{
		Cells: cells,
		Table: fmt.Sprintf("%-28s %8s %8s %12s %12s %12s %10s",
			"scenario", "samples", "maxDist", "worstSkew", "worstBound", "worstRatio", "epochs"),
		CSV:   "scenario,topology,driver,churn,n,d,max_skew,bound,ratio",
		Fail:  "scenario(s) exceeded GradientBound(d)",
		OK:    "ok: per-distance local skew within GradientBound(d) on every scenario",
		Judge: judgeGradient,
	}
}

// judgeGradient is GradientExperiment's Judge.
func judgeGradient(res SweepResult, _ *Simulation) Row {
	cfg, rpt := res.Cfg, res.Report
	r := gradientRow{
		Scenario: res.Name, Topology: topologyLabel(cfg),
		Driver: cfg.Driver.Kind.String(), Churn: cfg.Churn.Kind.String(), N: cfg.N,
		MaxDist: max(len(rpt.PerDistanceSkew)-1, 0), Samples: rpt.Samples, Epochs: rpt.DistanceRecomputes,
		MaxSkew: rpt.MaxGlobalSkew, PerDistanceSkew: []float64{0}, PerDistanceBound: []float64{0},
	}
	var csv strings.Builder
	worstD, breached := 0, false
	for d := 1; d <= r.MaxDist; d++ {
		skew, bound := rpt.PerDistanceSkew[d], cfg.GradientBound(d)
		ratio := skew / bound
		r.PerDistanceSkew = append(r.PerDistanceSkew, skew)
		r.PerDistanceBound = append(r.PerDistanceBound, bound)
		if ratio > r.WorstRatio {
			r.WorstRatio, worstD = ratio, d
		}
		breached = breached || skew > bound
		fmt.Fprintf(&csv, "%s,%s,%s,%s,%d,%d,%g,%g,%g\n", r.Scenario, r.Topology, r.Driver, r.Churn, r.N, d, skew, bound, ratio)
	}
	// Faulted runs may transiently breach per-distance bounds.
	r.Violated = violated(cfg, rpt, breached)
	return Row{
		Table: fmt.Sprintf("%-28s %8d %8d %12.6f %12.6f %12.4f %10d", r.Scenario, r.Samples, r.MaxDist,
			r.PerDistanceSkew[worstD], r.PerDistanceBound[worstD], r.WorstRatio, r.Epochs),
		CSV:    csv.String(),
		JSON:   r,
		Failed: r.Violated,
	}
}
