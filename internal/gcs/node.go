// Package gcs implements the gradient clock synchronization node of
// Kuhn, Locher, Oshman, "Gradient Clock Synchronization in Dynamic
// Networks" (SPAA 2009). Each node owns a drifting hardware clock and
// maintains a logical clock L_u that
//
//   - never decreases and always increases at least at the hardware rate,
//   - periodically broadcasts its value to the current neighbors
//     (a subjective beacon every BeaconEvery units of hardware time),
//   - jumps forward to the largest remote clock estimate when that
//     estimate exceeds L_u by more than JumpThreshold (with threshold 0
//     this is the max-propagation rule that yields the global skew bound
//     of O(maxDelay * D) per propagation hop),
//   - runs at the fast rate (1+Mu) times the hardware rate while some
//     current neighbor is ahead by more than Kappa, so large local skew
//     is caught up at the fast rate — the gradient property's catch-up
//     rule, with Kappa set by the Section 5 parameter schedule
//     (KappaSchedule: the largest gap staleness alone can fabricate, as
//     a function of Rho, Mu, MaxDelay, and BeaconEvery), and
//   - beacons immediately over a fresh edge (OnEdgeAdded neighbor
//     discovery) instead of waiting out the beacon period, which is what
//     the catch-up argument assumes of nodes that become adjacent.
//
// The paper's node keeps its neighbor set Γ_u from discover(add) and
// discover(remove) events (Section 3.2) and evaluates its rules against
// it. Here those events are OnEdgeAdded and OnEdgeRemoved, and what the
// node keeps of Γ_u is the one number the Section 5 rule needs: the
// largest estimate among current neighbors. Γ_u is maintained by events
// and scanned only after a loss, so evaluating the rule costs O(1) per
// message whatever the degree.
//
// Remote estimates are aged conservatively at (1-rho)/(1+rho) times the
// local hardware rate: the source's logical clock is guaranteed to have
// advanced at least that much, so estimates are always lower bounds on
// the source's current value and a jump can never overshoot the true
// network maximum.
//
// The node is written entirely against the harness seam (internal/seam):
// it reads time and arms subjective timers through seam.Clock/Timer and
// talks to the world through seam.Sender/Topology, so the same code runs
// under the discrete-event simulator (internal/sim) and the real-time
// runtime (internal/rt). It is single-threaded by contract — the owning
// harness serializes every entry point.
package gcs

import (
	"fmt"
	"math"

	"gcs/internal/seam"
)

// MuDisabled requests the jump-only regime: fast-rate catch-up is
// switched off entirely (effective Mu of zero). The zero value of Mu
// keeps meaning "unset, fill the default" so that zero-valued Params
// stay usable, which previously made an explicit zero boost
// inexpressible — WithDefaults silently rewrote Mu: 0 to Mu: 1. Any
// negative Mu is treated as this sentinel.
//
//gcslint:allow testonly — the documented Params sentinel; callers that want the jump-only regime name it
const MuDisabled = -1

// Params configures one node's algorithm.
type Params struct {
	// Rho is the hardware clock drift bound: rates stay in [1-Rho, 1+Rho].
	Rho float64
	// MaxDelay is the transport's delay bound; used only for documentation
	// and for derived defaults.
	MaxDelay float64
	// BeaconEvery is the hardware-time interval between beacons.
	BeaconEvery float64
	// Kappa is the local-skew threshold: a current neighbor estimated
	// ahead by more than Kappa puts the node into fast mode. Zero means
	// unset; WithDefaults fills the Section 5 schedule (KappaSchedule).
	Kappa float64
	// Mu is the fast-rate boost: in fast mode the logical clock runs at
	// (1+Mu) times the hardware rate. Catch-up converges when
	// (1+Mu)(1-Rho) > 1+Rho, i.e. Mu > 2*Rho/(1-Rho). Zero means unset
	// (WithDefaults fills 1); pass MuDisabled (any negative value) for an
	// explicit zero boost, the jump-only regime.
	Mu float64
	// JumpThreshold is how far the global max estimate must exceed L_u
	// before the node jumps to it. 0 gives the pure max-propagation rule;
	// math.Inf(1) disables jumps entirely so all catch-up happens at the
	// fast rate.
	JumpThreshold float64
}

// KappaSchedule is the paper's Section 5 blocking/gradient threshold as
// a function of the model parameters: the largest apparent gap that
// estimate staleness alone can fabricate. A current neighbor's estimate
// is stale by at most one beacon interval (real time
// beaconEvery/(1-rho)) plus one message delay; over that window the
// neighbor's logical clock advances at most (1+mu)(1+rho) per unit real
// time (it may itself be in fast mode) while conservative aging credits
// at least (1-rho)^2/(1+rho). An estimated gap above the difference
// therefore witnesses genuine local skew: fast mode never triggers on a
// synchronized pair, while every real gap above Kappa is caught up at
// the fast rate — the two facts the gradient (Section 5) argument
// balances.
func KappaSchedule(rho, mu, maxDelay, beaconEvery float64) float64 {
	if mu < 0 {
		mu = 0
	}
	w := beaconEvery/(1-rho) + maxDelay
	return ((1+mu)*(1+rho) - (1-rho)*(1-rho)/(1+rho)) * w
}

// WithDefaults fills unset fields with reasonable values. It is
// idempotent: explicit sentinel values (MuDisabled) pass through.
func (p Params) WithDefaults() Params {
	if p.Rho == 0 {
		p.Rho = 0.01
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = 0.01
	}
	if p.BeaconEvery == 0 {
		p.BeaconEvery = 0.1
	}
	if p.Mu == 0 {
		p.Mu = 1
	}
	if p.Kappa == 0 {
		p.Kappa = KappaSchedule(p.Rho, p.Mu, p.MaxDelay, p.BeaconEvery)
	}
	return p
}

// EffectiveMu returns the fast-rate boost actually applied: Mu, with the
// MuDisabled sentinel (any negative value) mapped to zero.
func (p Params) EffectiveMu() float64 {
	if p.Mu < 0 {
		return 0
	}
	return p.Mu
}

// FastRateEnabled reports whether the node ever enters fast mode: a
// disabled or zero boost makes the fast regime a no-op, so the node
// skips the neighbor scan entirely (the jump-only algorithm).
func (p Params) FastRateEnabled() bool { return p.EffectiveMu() > 0 }

// Validate reports whether the (defaulted) parameters are usable, as an
// error: the harness's Config.Validate path surfaces it to callers
// instead of panicking mid-run.
func (p Params) Validate() error {
	if !(p.Rho >= 0 && p.Rho < 1) {
		return fmt.Errorf("gcs: rho %v outside [0, 1)", p.Rho)
	}
	if !(p.BeaconEvery > 0) {
		return fmt.Errorf("gcs: BeaconEvery %v must be positive", p.BeaconEvery)
	}
	if !(p.Kappa > 0) {
		return fmt.Errorf("gcs: Kappa %v must be positive (a zero threshold would Zeno the catch-up loop)", p.Kappa)
	}
	if math.IsNaN(p.Mu) || !(p.JumpThreshold >= 0) {
		return fmt.Errorf("gcs: Mu %v must not be NaN, JumpThreshold %v must be nonnegative", p.Mu, p.JumpThreshold)
	}
	return nil
}

// validate keeps the panic contract of New/Reset — a node constructed
// with invalid parameters is a programmer error, and pre-validated
// harness paths must not pay an error-branch per node.
func (p Params) validate() {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
}

// estimate is the largest value heard from source from, stored
// normalized to local hardware time zero: the aged value at local reading
// h is norm + age*h. Normalizing makes the aged ordering of estimates
// time-invariant, so the global maximum is maintainable in O(1).
type estimate struct {
	from int
	norm float64
}

// Snapshot is a point-in-time view of one node's state, for assertions.
type Snapshot struct {
	ID          int
	Hardware    float64
	Logical     float64
	MaxEstimate float64 // -Inf if nothing heard yet
	Messages    int
	Jumps       int
	Beacons     int
	Discoveries int
	Fast        bool
}

// noopSender and noopTopo are the defaults for isolated unit tests: no
// neighbors, no sends.
type noopSender struct{}

func (noopSender) Broadcast(int, float64) int  { return 0 }
func (noopSender) Send(int, int, float64) bool { return false }

type noopTopo struct{}

func (noopTopo) AppendNeighbors(_ int, buf []int) []int { return buf }

// Shared is what every node of one harness has in common: the defaulted
// parameters, the aging factor they fix, and the seam wiring. A harness
// Sets one for a run and hands its address to every node's Init, so a
// node holds one pointer instead of its own copy. A harness may Set it
// again between runs, before it resets its nodes against it, but never
// while they run. The zero Shared is unusable until Set.
type Shared struct {
	p Params
	// age is the guaranteed minimum progress of any remote logical clock
	// per unit of local hardware time, (1-Rho)/(1+Rho): the remote
	// hardware runs at >= (1-rho) real rate and the local one at
	// <= (1+rho). Fixed by the parameters, so computed once per Set.
	age float64

	// net carries beacons to the current neighbors (Broadcast) and the
	// discovery unicast over a fresh edge (Send). topo enumerates the
	// current neighborhood for the rescan that follows a lost edge.
	net  seam.Sender
	topo seam.Topology
}

// Set fills sh for nodes running under p (defaulted here) on net and
// topo; either may be nil for isolated unit tests (treated as no
// neighbors, no sends). It panics if the defaulted p is invalid.
func (sh *Shared) Set(p Params, net seam.Sender, topo seam.Topology) {
	if net == nil {
		net = noopSender{}
	}
	if topo == nil {
		topo = noopTopo{}
	}
	p = p.WithDefaults()
	p.validate()
	*sh = Shared{p: p, age: ageFactor(p.Rho), net: net, topo: topo}
}

// Node is one synchronization participant. It is single-threaded, owned
// by its harness (the clock's engine in the DES, the node goroutine in
// the real-time runtime).
type Node struct {
	id  int
	clk seam.Clock
	// sh holds the parameters and seam wiring, shared with the other
	// nodes of the harness.
	sh *Shared

	// nbuf is the reused scratch buffer of the neighbor rescan, so the
	// rescan does not allocate.
	nbuf []int

	// Logical clock as a line in hardware time:
	// L(h) = baseL + mult*(h - baseH), rebased at every regime change.
	baseH, baseL, mult float64

	// est is the estimate table: one entry per source heard since the
	// last forget, sorted by source id and searched by binary search. A
	// ring node keeps two entries, the rotating-star hub one per spoke.
	est []estimate
	// maxNorm is the running maximum of est[*].norm (-Inf when empty);
	// per-source norms only ever increase, so it never needs a rescan.
	maxNorm float64
	// nbrNorm is the largest estimate norm over the current neighbors —
	// the node's rendering of the paper's Γ_u, maintained by the discover
	// events instead of re-derived per message: raised when a neighbor's
	// estimate rises (OnMessage) or a neighbor with a surviving
	// estimate returns (OnEdgeAdded). Normalized estimates never reorder
	// with time, so this one number decides the fast-mode rule. A lost
	// edge (OnEdgeRemoved) can only lower it, which is not incremental:
	// it sets nbrStale, and the next recompute rebuilds nbrNorm by the
	// O(degree) scan, once however many edges went.
	nbrNorm float64
	// catchupT re-evaluates the regime exactly when L reaches the fast
	// target; beaconT drives the periodic beacon loop. Both are created
	// once in Init (on a clock.HardwareClock they live inside the clock)
	// and re-armed in place, so the per-tick path does not allocate and a
	// crash can silence either.
	catchupT seam.Timer
	beaconT  seam.Timer
	// down marks a crashed node (fault injection): it neither beacons
	// nor reacts to incoming traffic until Recover.
	down     bool
	nbrStale bool
	fast     bool

	msgs, jumps, beacons, discoveries int
}

// New creates a node. net and topo wire it to the harness's transport
// and graph; either may be nil for isolated unit tests (treated as no
// neighbors, no sends).
func New(id int, clk seam.Clock, p Params, net seam.Sender, topo seam.Topology) *Node {
	sh := new(Shared)
	sh.Set(p, net, topo)
	nd := new(Node)
	nd.Init(id, clk, sh)
	return nd
}

// Init sets nd up in place as New would, overwriting whatever it held,
// with the parameters and wiring of sh, which nd keeps pointing at: a
// harness that allocates its nodes as one slab calls it on each element
// with one Shared.
func (nd *Node) Init(id int, clk seam.Clock, sh *Shared) {
	*nd = Node{
		id:      id,
		clk:     clk,
		sh:      sh,
		baseH:   clk.Now(),
		baseL:   clk.Now(),
		mult:    1,
		maxNorm: math.Inf(-1),
		nbrNorm: math.Inf(-1),
	}
	nd.catchupT = clk.NewTimer("gcs.catchup", nd.recompute)
	nd.beaconT = clk.NewTimer("gcs.beacon", func() {
		nd.emit()
		nd.beaconT.Reset(nd.sh.p.BeaconEvery)
	})
}

// Reset returns the node to its initial state under the parameters of
// its Shared, which a harness re-Sets before resetting its nodes for a
// run under other ones. It keeps the seam wiring, the timers, the
// estimate table's capacity, and the neighbor scratch buffer, so
// re-running a node on a reused arena allocates nothing. The clock must
// already have been reset by the harness; the logical clock restarts at
// the (fresh) hardware reading.
func (nd *Node) Reset() {
	nd.forget()
	nd.catchupT.Stop()
	nd.beaconT.Stop()
	nd.down = false
	nd.msgs, nd.jumps, nd.beacons, nd.discoveries = 0, 0, 0, 0
}

// forget drops the volatile algorithm state — estimates (and with them
// both cached maxima), regime, the logical clock's accumulated lead —
// restarting the logical clock at the current hardware reading.
func (nd *Node) forget() {
	h := nd.clk.Now()
	nd.baseH, nd.baseL, nd.mult = h, h, 1
	nd.est = nd.est[:0]
	nd.maxNorm = math.Inf(-1)
	nd.nbrNorm, nd.nbrStale = math.Inf(-1), false
	nd.fast = false
}

// OnEdgeAdded is the paper's discover(add): peer joins Γ_u. If an
// estimate of peer survives from an earlier adjacency it counts toward
// the fast-mode rule again at once, without waiting for a new message.
// The node then immediately beacons its logical value to the new
// neighbor instead of waiting up to BeaconEvery for the periodic tick.
// The paper's catch-up argument assumes exactly this — a node that
// becomes adjacent to a lagging (or leading) clock exchanges values
// within one message delay, so topology-created local skew starts being
// corrected at the fast rate (or by a jump) right away.
func (nd *Node) OnEdgeAdded(peer int) {
	if i, ok := nd.find(peer); ok && nd.est[i].norm > nd.nbrNorm {
		nd.nbrNorm = nd.est[i].norm
	}
	if nd.down {
		return
	}
	nd.recompute()
	nd.discoveries++
	nd.sh.net.Send(nd.id, peer, nd.Logical())
}

// OnEdgeRemoved is the paper's discover(remove): peer leaves Γ_u. Its
// estimate stays in est (it still gates which later values count as
// news and feeds the jump rule) but no longer counts toward fast mode.
// The regime itself is re-evaluated at the node's next event, as it
// would be had the departed neighbor simply fallen silent.
//
//gcslint:zeroalloc
func (nd *Node) OnEdgeRemoved(peer int) {
	nd.nbrStale = true
}

// Start installs the beacon loop. phase is the hardware-time offset of
// the first beacon (stagger nodes to avoid synchronized bursts); it must
// be nonnegative.
func (nd *Node) Start(phase float64) {
	if phase < 0 {
		panic("gcs: negative beacon phase")
	}
	nd.beaconT.Reset(phase)
}

// Crash takes the node offline — the fault subsystem's crash-stop /
// crash-recover schedules call it from injected events. The pending
// beacon and catch-up timers are cancelled and incoming traffic is
// ignored until Recover; counters are preserved (a crash is a fault,
// not a reset), so report totals stay exact across crashes.
func (nd *Node) Crash() {
	if nd.down {
		return
	}
	nd.down = true
	nd.beaconT.Stop()
	nd.catchupT.Stop()
	nd.fast = false
}

// Recover brings a crashed node back. Volatile algorithm state —
// estimates, regime, the logical clock's accumulated lead — is lost,
// exactly as in Reset: the logical clock restarts at the current
// hardware reading. The node rejoins through the existing discovery
// mechanism by beaconing immediately, the same exchange a fresh edge
// triggers, so its neighbors re-learn it within one message delay.
func (nd *Node) Recover() {
	if !nd.down {
		return
	}
	nd.down = false
	nd.forget()
	nd.beaconT.Reset(0)
}

// Down reports whether the node is currently crashed.
func (nd *Node) Down() bool { return nd.down }

// Logical returns L_u at the clock's current reading.
func (nd *Node) Logical() float64 {
	return nd.logicalAt(nd.clk.Now())
}

func (nd *Node) logicalAt(h float64) float64 {
	return nd.baseL + nd.mult*(h-nd.baseH)
}

// ageFactor is the conservative aging rate of remote estimates under
// drift bound rho (see Shared.age).
func ageFactor(rho float64) float64 { return (1 - rho) / (1 + rho) }

// find returns the position of source from in the estimate table and
// whether it is there; when it is not, the position is where it belongs.
// It is written out rather than calling slices.BinarySearchFunc so that it
// inlines into OnMessage, with no call per comparison.
//
//gcslint:zeroalloc
func (nd *Node) find(from int) (int, bool) {
	lo, hi := 0, len(nd.est)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if nd.est[m].from < from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(nd.est) && nd.est[lo].from == from
}

// OnMessage ingests a beacon carrying the sender's logical value: it
// folds the value into the sender's estimate and both running maxima,
// then re-evaluates the jump and fast-mode rules. The harness calls it
// only for a message that crossed a present edge, so from is a current
// neighbor: every harness, rt.Router included, delivers a message iff
// the presence record the flight was sent on is still open when the
// delivery fires.
//
//gcslint:zeroalloc
func (nd *Node) OnMessage(from int, value float64) {
	if nd.down {
		// A crashed process receives nothing: the transport delivered to a
		// dead node, and the value is lost with the rest of its state.
		return
	}
	nd.msgs++
	norm := value - nd.sh.age*nd.clk.Now()
	if i, ok := nd.find(from); !ok || norm > nd.est[i].norm {
		if !ok {
			// A source heard for the first time: open its sorted slot.
			nd.est = append(nd.est, estimate{})
			copy(nd.est[i+1:], nd.est[i:])
		}
		nd.est[i] = estimate{from: from, norm: norm}
		if norm > nd.maxNorm {
			nd.maxNorm = norm
		}
		if norm > nd.nbrNorm {
			nd.nbrNorm = norm
		}
	}
	nd.recompute()
}

// emit broadcasts the node's logical value after refreshing its regime.
//
//gcslint:zeroalloc
func (nd *Node) emit() {
	if nd.down {
		// Crash cancels the beacon timer, so this only guards a beacon
		// event already in the same harness tick as the crash.
		return
	}
	nd.recompute()
	nd.beacons++
	nd.sh.net.Broadcast(nd.id, nd.Logical())
}

// scanNeighbors is the O(degree) evaluation of nbrNorm from the
// topology: the largest normalized estimate among current neighbors
// (-Inf if none has been heard).
//
//gcslint:zeroalloc
func (nd *Node) scanNeighbors() float64 {
	m := math.Inf(-1)
	nd.nbuf = nd.sh.topo.AppendNeighbors(nd.id, nd.nbuf[:0])
	for _, v := range nd.nbuf {
		if i, ok := nd.find(v); ok && nd.est[i].norm > m {
			m = nd.est[i].norm
		}
	}
	return m
}

// CheckNeighborMax reports whether the event-maintained neighbor
// maximum agrees with a fresh scan of the topology — an invariant for
// harness tests to assert at quiescent points (every discover event
// delivered). It is vacuous while a rescan is already pending.
//
//gcslint:allow testonly — test-support API: the harness tests assert this invariant
func (nd *Node) CheckNeighborMax() error {
	if nd.nbrStale {
		return nil
	}
	if want := nd.scanNeighbors(); nd.nbrNorm != want {
		return fmt.Errorf("gcs: node %d caches neighbor maximum %v, a scan finds %v", nd.id, nd.nbrNorm, want)
	}
	return nil
}

// recompute rebases the logical clock at the current instant, applies the
// jump rule against the global max estimate, and selects the rate regime
// from the largest current-neighbor estimate.
//
//gcslint:zeroalloc
func (nd *Node) recompute() {
	h := nd.clk.Now()
	L := nd.logicalAt(h)
	sh := nd.sh

	maxEst := nd.maxNorm + sh.age*h
	if maxEst-L > sh.p.JumpThreshold {
		L = maxEst
		nd.jumps++
	}

	// Fast mode: some current neighbor is estimated ahead by more than
	// Kappa. All estimates age by the same age*h, so "some neighbor" is
	// "the one with the largest norm", and that estimate is also the
	// target; the catch-up timer re-evaluates exactly when L reaches it.
	// Γ_u is maintained by the discover events and scanned only after a
	// loss. With the fast rate disabled (MuDisabled, the jump-only regime)
	// the rule is skipped: a boost of zero could never catch up and would
	// only rearm useless timers.
	var fast bool
	var target float64
	if sh.p.FastRateEnabled() {
		if nd.nbrStale {
			nd.nbrNorm = nd.scanNeighbors()
			nd.nbrStale = false
		}
		target = nd.nbrNorm + sh.age*h
		fast = target-L > sh.p.Kappa
	}

	nd.baseH, nd.baseL = h, L
	nd.fast = fast
	if fast {
		nd.mult = 1 + sh.p.EffectiveMu()
	} else {
		nd.mult = 1
	}

	nd.catchupT.Stop()
	if fast {
		// L reaches target after (target-L)/mult hardware time; the
		// estimate will have aged less than that (age < 1 <= mult), so
		// each round shrinks the gap geometrically until it is <= Kappa.
		dH := (target - L) / nd.mult
		nd.catchupT.Reset(dH)
	}
}

// Snap returns a snapshot of the node's state at the current time.
func (nd *Node) Snap() Snapshot {
	h := nd.clk.Now()
	maxEst := nd.maxNorm + nd.sh.age*h
	return Snapshot{
		ID:          nd.id,
		Hardware:    h,
		Logical:     nd.logicalAt(h),
		MaxEstimate: maxEst,
		Messages:    nd.msgs,
		Jumps:       nd.jumps,
		Beacons:     nd.beacons,
		Discoveries: nd.discoveries,
		Fast:        nd.fast,
	}
}
