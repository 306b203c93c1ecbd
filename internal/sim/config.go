// Package sim is the scenario harness: it wires engine, dynamic graph,
// churn, per-node clock drivers, bounded-delay transport, and n GCS
// nodes from a declarative Config, runs the execution to a horizon, and
// reports skew and traffic statistics. Every future scaling or
// lower-bound experiment drives a simulation through this package.
package sim

import (
	"fmt"
	"math"
	"strings"

	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
)

// FaultSpec is the declarative fault plan carried by Config.Faults; see
// package fault for the injection model and determinism contract.
type FaultSpec = fault.Spec

// TopologyKind selects the initial (backbone) edge set.
type TopologyKind int

const (
	TopoLine TopologyKind = iota
	TopoRing
	TopoStar
	TopoGrid
	TopoComplete
	// TopoTwoChains is the Theorem 4.1 / Figure 1 lower-bound network:
	// two parallel chains sharing their endpoint nodes 0 and n-1 (see
	// dyngraph.NewTwoChains). Config.LowerBoundEps runs the Theorem 4.1
	// adversary over it.
	TopoTwoChains
)

var topologyNames = []string{"Line", "Ring", "Star", "Grid", "Complete", "TwoChains"}

// String returns the kind's scenario-table name.
func (k TopologyKind) String() string { return kindName("TopologyKind", topologyNames, int(k)) }

// ParseTopologyKind maps a kind's lower-cased scenario-table name
// ("ring", "twochains"), the spelling flags and sweep specs use, back to
// the kind.
func ParseTopologyKind(name string) (TopologyKind, bool) {
	k, ok := kindNamed(topologyNames, name)
	return TopologyKind(k), ok
}

// kindName returns names[k], the scenario-table name of the k-th kind of
// an enumeration, or "typ(k)" for a value outside it.
func kindName(typ string, names []string, k int) string {
	if k < 0 || k >= len(names) {
		return fmt.Sprintf("%s(%d)", typ, k)
	}
	return names[k]
}

// kindNamed is kindName's inverse over lower-cased names.
func kindNamed(names []string, name string) (int, bool) {
	for k, s := range names {
		if strings.ToLower(s) == name {
			return k, true
		}
	}
	return 0, false
}

// TopologySpec is a declarative topology choice. W and H apply to
// TopoGrid only and must satisfy W*H == n.
type TopologySpec struct {
	Kind TopologyKind
	W, H int
}

// SquareGridW returns the largest divisor of n that is at most sqrt(n),
// so W x (n/W) is the most square grid covering exactly n nodes.
func SquareGridW(n int) int {
	w := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			w = d
		}
	}
	return w
}

// Edges materializes the topology over n nodes.
func (s TopologySpec) Edges(n int) []dyngraph.Edge {
	switch s.Kind {
	case TopoLine:
		return dyngraph.Line(n)
	case TopoRing:
		return dyngraph.Ring(n)
	case TopoStar:
		return dyngraph.Star(n)
	case TopoGrid:
		if s.W*s.H != n {
			panic(fmt.Sprintf("sim: grid %dx%d does not cover %d nodes", s.W, s.H, n))
		}
		return dyngraph.Grid(s.W, s.H)
	case TopoComplete:
		return dyngraph.Complete(n)
	case TopoTwoChains:
		return dyngraph.NewTwoChains(n).Edges
	}
	panic(fmt.Sprintf("sim: unknown topology kind %d", s.Kind))
}

// diameter returns the topology's hop diameter in closed form, so the
// analytic bound costs neither an edge list nor an all-source BFS (O(n²)
// at ring sizes where the simulation itself is O(n)). The two chains
// close one n-cycle. TestTopologyDiameterClosedForm pins every form
// against an all-source BFS.
func (s TopologySpec) diameter(n int) int {
	switch s.Kind {
	case TopoLine:
		return n - 1
	case TopoRing:
		return n / 2
	case TopoStar:
		if n <= 2 {
			return n - 1
		}
		return 2
	case TopoGrid:
		if s.W*s.H != n {
			panic(fmt.Sprintf("sim: grid %dx%d does not cover %d nodes", s.W, s.H, n))
		}
		return (s.W - 1) + (s.H - 1)
	case TopoComplete:
		if n <= 1 {
			return 0
		}
		return 1
	case TopoTwoChains:
		return n / 2
	}
	panic(fmt.Sprintf("sim: unknown topology kind %d", s.Kind))
}

// DriverKind selects the hardware-clock rate process.
type DriverKind int

const (
	DriveConstant DriverKind = iota
	DriveRandomWalk
	DriveBangBang
)

var driverNames = []string{"Constant", "RandomWalk", "BangBang"}

// String returns the kind's scenario-table name.
func (k DriverKind) String() string { return kindName("DriverKind", driverNames, int(k)) }

// ParseDriverKind maps a kind's lower-cased name back to the kind.
func ParseDriverKind(name string) (DriverKind, bool) {
	k, ok := kindNamed(driverNames, name)
	return DriverKind(k), ok
}

// DriverSpec is a declarative per-node clock driver choice. The same
// spec instantiates one driver per node (DriverState, with reseedable
// per-node streams): RandomWalk forks an independent stream per node,
// BangBang anti-phases odd and even nodes (the worst benign pattern for
// adjacent skew).
type DriverSpec struct {
	Kind DriverKind
	// Interval is the rate-change period (RandomWalk, BangBang).
	Interval float64
}

// ChurnKind selects the topology-change process.
type ChurnKind int

const (
	// ChurnNone keeps the initial topology static.
	ChurnNone ChurnKind = iota
	// ChurnVolatile keeps the topology as a static backbone and churns
	// ExtraEdges additional random candidate edges around it.
	ChurnVolatile
	// ChurnRotatingStar ignores the topology spec and cycles complete
	// stars with rotating hubs (the maximally dynamic pattern); the
	// execution is Overlap-interval connected.
	ChurnRotatingStar
)

var churnNames = []string{"None", "Volatile", "RotatingStar"}

// String returns the kind's scenario-table name.
func (k ChurnKind) String() string { return kindName("ChurnKind", churnNames, int(k)) }

// ParseChurnKind maps a kind's lower-cased name back to the kind.
func ParseChurnKind(name string) (ChurnKind, bool) {
	k, ok := kindNamed(churnNames, name)
	return ChurnKind(k), ok
}

// ChurnSpec is a declarative churn choice.
type ChurnSpec struct {
	Kind ChurnKind
	// Period and Overlap drive ChurnRotatingStar.
	Period, Overlap float64
	// Lifetime, Absence, and ExtraEdges drive ChurnVolatile.
	Lifetime, Absence float64
	ExtraEdges        int
}

// T returns the churn process's slack in the analytic bounds: the longest
// wait before a propagation path is guaranteed. For the rotating star
// that is Period, although it is only Overlap-interval connected.
func (s ChurnSpec) T() float64 {
	if s.Kind == ChurnRotatingStar {
		return s.Period
	}
	return 0
}

// Config declares one complete scenario. The zero value of every field
// except N is usable; WithDefaults fills the rest.
type Config struct {
	N       int
	Seed    uint64
	Horizon float64
	// Rho bounds hardware clock drift; MaxDelay bounds message delay.
	Rho      float64
	MaxDelay float64

	Topology TopologySpec
	Driver   DriverSpec
	Churn    ChurnSpec
	// Node carries the algorithm parameters; Rho and MaxDelay are
	// overridden from the Config so the scenario stays consistent.
	Node gcs.Params

	// SampleEvery is the real-time period of skew sampling.
	SampleEvery float64

	// CheckGradient attaches a GradientChecker to the simulation: every
	// skew sample additionally buckets |L_u - L_v| over node pairs by
	// their current hop distance, for comparison against GradientBound.
	// Off by default — the exact check reads n^2 pairs per sample.
	CheckGradient bool

	// Parallel is defaults sugar: it sets Shards to 8 and MinDelay to
	// MaxDelay/4 where unset, and a Parallel config runs, reports and
	// encodes exactly like one with those values set by hand.
	Parallel bool

	// Shards is the windowed engine's node shard count (0 = 1, clamped
	// to N; more than one needs MinDelay > 0). Execution, like Workers:
	// every shard count gives the bit-identical report.
	Shards int

	// Workers is the goroutine count the windowed engine executes shard
	// windows and merges with (0 = GOMAXPROCS). Pure execution detail:
	// every worker count produces the bit-identical report, with 1 the
	// serial reference.
	Workers int

	// MinDelay is the message-delay floor: every nominal delay lies in
	// (MinDelay, MaxDelay]. At 0 the run is the serial engine; above 0
	// it is the windowed engine's lookahead (see des.ParallelEngine).
	MinDelay float64

	// Faults is the declarative fault-injection plan: probabilistic
	// message loss/duplication, delay spikes beyond MaxDelay, node
	// crash-stop/crash-recover schedules, and hardware-rate excursions
	// outside [1-rho, 1+rho]. Faults are physics, like MinDelay: every
	// draw comes from per-node streams, so faulted reports are
	// bit-identical across reruns and shard and worker counts, and the
	// zero value leaves the execution untouched draw for draw.
	Faults FaultSpec

	// LowerBoundEps, when positive, makes the run the Theorem 4.1
	// adversary (Section 4) over the static TopoTwoChains network: every
	// node follows the Eq. (1) layered rate schedule for its flexible
	// distance from node 0, and every message takes exactly MaxDelay on
	// chain A and exactly LowerBoundEps on chain B. It needs the constant
	// driver (the adversary sets every rate) and MinDelay < LowerBoundEps
	// <= MaxDelay. Zero is the ordinary run, and leaves the field out of
	// the JSON form, as out of the canonical one.
	LowerBoundEps float64 `json:",omitempty"`
}

// WithDefaults returns the config with unset fields filled in. It is
// total — malformed configurations are reported by Validate (the
// harness-boundary error path), not by panics here.
func (c Config) WithDefaults() Config {
	if c.Horizon == 0 {
		c.Horizon = 10
	}
	if c.Rho == 0 {
		c.Rho = 0.01
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 0.01
	}
	if c.Driver.Interval == 0 {
		c.Driver.Interval = 1
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 0.1
	}
	if c.Parallel && c.Shards == 0 {
		c.Shards = 8
	}
	if c.Parallel && c.MinDelay == 0 {
		c.MinDelay = c.MaxDelay / 4
	}
	c.Shards = min(c.Shards, c.N)
	c.Node.Rho = c.Rho
	c.Node.MaxDelay = c.MaxDelay
	c.Node = c.Node.WithDefaults()
	c.Faults = c.Faults.WithDefaults(c.Horizon)
	return c
}

// Validate checks the configuration at the harness boundary, returning
// a descriptive error instead of panicking, so a long-running service
// can reject a bad job and keep sweeping. RunSweep and the CLI call it
// before wiring; New and Reset still panic on invalid configs (a
// pre-validated programmer-error path, like the remaining internal
// invariants: DES time regression, lookahead breach).
func (c Config) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("sim: Config.N must be positive (got %d)", c.N)
	}
	if c.CheckGradient && c.N > 1<<16 {
		// The checker keeps n² distances and names a pair in 32 bits.
		return fmt.Errorf("sim: CheckGradient needs n <= 65536 (got %d)", c.N)
	}
	if c.Horizon < 0 || math.IsNaN(c.Horizon) || math.IsInf(c.Horizon, 0) {
		return fmt.Errorf("sim: Config.Horizon %v must be finite and nonnegative", c.Horizon)
	}
	if c.Rho < 0 || c.Rho >= 1 || math.IsNaN(c.Rho) {
		return fmt.Errorf("sim: Config.Rho %v outside [0, 1)", c.Rho)
	}
	if c.MaxDelay < 0 || math.IsNaN(c.MaxDelay) {
		return fmt.Errorf("sim: Config.MaxDelay %v must be nonnegative", c.MaxDelay)
	}
	if c.SampleEvery < 0 {
		return fmt.Errorf("sim: Config.SampleEvery %v must be nonnegative", c.SampleEvery)
	}
	// The checks below compare only what a field's kind uses; a NaN is
	// refused wherever it sits, since it fails every comparison and would
	// reach a schedule or silently end a chain.
	for _, f := range []struct {
		name string
		v    float64
	}{{"SampleEvery", c.SampleEvery}, {"Driver.Interval", c.Driver.Interval},
		{"Churn.Period", c.Churn.Period}, {"Churn.Overlap", c.Churn.Overlap},
		{"Churn.Lifetime", c.Churn.Lifetime}, {"Churn.Absence", c.Churn.Absence}} {
		if math.IsNaN(f.v) {
			return fmt.Errorf("sim: Config.%s is NaN", f.name)
		}
	}
	d := c.WithDefaults()
	// The rotating star ignores the backbone topology entirely, so a
	// backbone spec under it is never materialized and its size floors
	// don't apply.
	backbone := d.Churn.Kind != ChurnRotatingStar
	switch c.Topology.Kind {
	case TopoLine, TopoStar, TopoComplete:
	case TopoRing:
		if backbone && c.N < 3 {
			return fmt.Errorf("sim: ring topology needs n >= 3 (got %d)", c.N)
		}
	case TopoTwoChains:
		if backbone && c.N < 4 {
			return fmt.Errorf("sim: two-chains topology needs n >= 4 (got %d)", c.N)
		}
	case TopoGrid:
		if backbone && c.Topology.W*c.Topology.H != c.N {
			return fmt.Errorf("sim: grid %dx%d does not cover %d nodes", c.Topology.W, c.Topology.H, c.N)
		}
	default:
		return fmt.Errorf("sim: unknown topology kind %d", int(c.Topology.Kind))
	}
	switch d.Driver.Kind {
	case DriveConstant:
	case DriveRandomWalk, DriveBangBang:
		if d.Driver.Interval <= 0 {
			return fmt.Errorf("sim: %v driver interval %v must be positive", d.Driver.Kind, d.Driver.Interval)
		}
	default:
		return fmt.Errorf("sim: unknown driver kind %d", int(d.Driver.Kind))
	}
	switch d.Churn.Kind {
	case ChurnNone:
	case ChurnVolatile:
		if d.Churn.Lifetime <= 0 || d.Churn.Absence <= 0 {
			return fmt.Errorf("sim: volatile churn durations (Lifetime %v, Absence %v) must be positive",
				d.Churn.Lifetime, d.Churn.Absence)
		}
		if d.Churn.ExtraEdges < 0 {
			return fmt.Errorf("sim: volatile churn ExtraEdges %d must be nonnegative", d.Churn.ExtraEdges)
		}
	case ChurnRotatingStar:
		if !(d.Churn.Overlap > 0 && d.Churn.Overlap < d.Churn.Period) {
			return fmt.Errorf("sim: rotating star needs 0 < Overlap < Period (got Overlap %v, Period %v)",
				d.Churn.Overlap, d.Churn.Period)
		}
	default:
		return fmt.Errorf("sim: unknown churn kind %d", int(d.Churn.Kind))
	}
	if !(d.MinDelay >= 0 && d.MinDelay < d.MaxDelay) {
		return fmt.Errorf("sim: Config.MinDelay %v must lie in [0, MaxDelay %v)", d.MinDelay, d.MaxDelay)
	}
	if c.Shards < 0 || d.Shards > 1 && d.MinDelay == 0 {
		return fmt.Errorf("sim: Config.Shards %d must be nonnegative, and above 1 needs a positive MinDelay (the lookahead)", c.Shards)
	}
	if c.LowerBoundEps != 0 {
		switch {
		case c.Topology.Kind != TopoTwoChains || d.Churn.Kind != ChurnNone || d.Driver.Kind != DriveConstant:
			return fmt.Errorf("sim: the lower-bound adversary needs the static two-chains topology and the constant driver")
		case !(d.MinDelay < c.LowerBoundEps && c.LowerBoundEps <= d.MaxDelay):
			return fmt.Errorf("sim: Config.LowerBoundEps %v must lie in (MinDelay %v, MaxDelay %v]",
				c.LowerBoundEps, d.MinDelay, d.MaxDelay)
		}
	}
	if err := d.Node.Validate(); err != nil {
		return err
	}
	return d.Faults.Validate(d.Horizon)
}

// GlobalSkewBound returns the analytic worst-case global skew for the
// scenario. The max-propagation argument: a value held anywhere reaches
// any node after at most one beacon interval plus one message delay per
// hop (a "hop window"), and the network maximum grows at real rate at
// most 1+rho, so the skew is bounded by (1+rho) times the total
// propagation time. For static and backbone scenarios the hop count is
// the backbone diameter; for the rotating star it is 2 (leaf -> hub ->
// leaf) plus up to two star periods of slack for beacons lost to star
// teardowns mid-flight. A positive JumpThreshold adds its value per hop.
func (c Config) GlobalSkewBound() float64 {
	c = c.WithDefaults()
	beaconReal := c.Node.BeaconEvery / (1 - c.Rho)
	hop := beaconReal + c.MaxDelay + c.Node.JumpThreshold
	var hops float64
	slack := 2 * c.Churn.T()
	if c.Churn.Kind == ChurnRotatingStar {
		hops = 2
	} else {
		hops = float64(c.Topology.diameter(c.N))
	}
	return (1 + c.Rho) * (hops*hop + slack)
}

// GradientBound returns the analytic per-distance local skew bound — the
// harness's form of the paper's Section 5 gradient property: the skew
// between nodes currently d hops apart is linear in d, not in the
// diameter. It is the per-edge stable skew times d plus the same churn
// slack as GlobalSkewBound. The per-edge term is the cheaper of the two
// catch-up regimes:
//
//   - jump regime: a lagging node jumps once its max estimate exceeds
//     L by JumpThreshold, and the estimate one hop closer to the front
//     is stale by at most one beacon interval plus one delay, so an
//     edge's skew stays within JumpThreshold plus one hop window of
//     clock growth;
//   - fast-rate regime (requires a convergent boost,
//     (1+Mu)(1-Rho) > 1+Rho): a gap above Kappa is detected within one
//     hop window — during which the leader gains at most (1+Mu)(1+Rho)
//     per unit real time — and then shrinks, so an edge's skew stays
//     within Kappa plus one fast-rate hop window.
//
// Distances beyond the current topology get the same linear
// extrapolation; d <= 0 returns 0. A configuration with jumps disabled
// (JumpThreshold = +Inf) and the fast rate disabled or non-convergent
// has no gradient property: the bound is +Inf.
func (c Config) GradientBound(d int) float64 {
	if d <= 0 {
		return 0
	}
	c = c.WithDefaults()
	hop := c.Node.BeaconEvery/(1-c.Rho) + c.MaxDelay
	perEdge := math.Inf(1)
	if !math.IsInf(c.Node.JumpThreshold, 1) {
		perEdge = c.Node.JumpThreshold + (1+c.Rho)*hop
	}
	if mu := c.Node.EffectiveMu(); (1+mu)*(1-c.Rho) > 1+c.Rho {
		if fast := c.Node.Kappa + (1+mu)*(1+c.Rho)*hop; fast < perEdge {
			perEdge = fast
		}
	}
	return float64(d)*perEdge + (1+c.Rho)*2*c.Churn.T()
}
