package sim

import (
	"math"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
	"gcs/internal/transport"
)

// DriverState is one node's rate-driver chain: the per-node PRNG stream,
// the BangBang phase, and the lower bound's Eq. (1) head start. It is the
// one driver implementation; TestDriverStateMatchesClockDrivers pins it
// draw for draw against the reference drivers in driver_test.go.
type DriverState struct {
	rand des.Rand
	high bool
	// lead is the delay to the end of an Eq. (1) head start at rate 1+rho,
	// zero when there is none.
	lead float64
}

// Start seeds the chain for node from the run's driver stream:
// RandomWalk forks an independent stream per node, BangBang anti-phases
// odd and even nodes. The first Step then yields the initial rate.
func (d *DriverState) Start(node int, driveRand *des.Rand) {
	driveRand.ForkInto(uint64(node), &d.rand)
	d.high = node%2 == 0
	d.lead = 0
}

// StartLayered gives a constant driver's chain the lower bound's Eq. (1)
// schedule (Section 4) for a node at flexible distance dist from the
// reference node, H(t) = t + min(rho*t, maxDelay*dist): rate 1+rho until
// t = maxDelay*dist/rho, then 1, one breakpoint per Step. A node at
// distance 0 runs at rate 1 throughout.
func (d *DriverState) StartLayered(rho, maxDelay float64, dist int) {
	d.lead = 0
	if dist > 0 && rho != 0 {
		d.lead = maxDelay * float64(dist) / rho
	}
}

// Step advances the chain: it returns the hardware rate the node runs
// at from now on and the delay to the next step, negative when there is
// none (the constant driver sets its rate once, after any head start
// StartLayered gave it). Like the fault chains of fault.Injector it
// leaves turning that delay into a future call to the harness — a DES
// event in core.driveStep, a re-armed wall timer in internal/rt — so the
// chain logic exists once.
func (d *DriverState) Step(spec DriverSpec, rho float64) (rate, next float64) {
	switch spec.Kind {
	case DriveConstant:
		if d.lead > 0 {
			next, d.lead = d.lead, 0
			return 1 + rho, next
		}
		return 1, -1
	case DriveRandomWalk:
		rate = d.rand.Range(1-rho, 1+rho)
		return rate, spec.Interval * (0.5 + d.rand.Float64())
	case DriveBangBang:
		rate = 1 - rho
		if d.high {
			rate = 1 + rho
		}
		d.high = !d.high
		return rate, spec.Interval
	}
	panic("sim: unknown driver kind")
}

// Fold accumulates skew samples and per-node totals into a SkewReport.
// It is the one definition of the report's observed fields for all three
// harnesses: each harness reads its nodes its own way (one serial scan on
// both DES harnesses, under host locks in rt) and hands the fold the
// sample's extrema, the endpoint readings of every current edge, and at
// the end each node's counters.
type Fold struct {
	Report SkewReport

	lastT float64
	// faultOn/faultBound/goodSince track when the skew last re-entered
	// the analytic bound (-1 while outside), feeding ReconvergenceTime.
	faultOn    bool
	faultBound float64
	goodSince  float64
}

// Reset clears the fold for a new run. faultBound is the analytic global
// skew bound and is only read when faultOn is set.
func (f *Fold) Reset(faultOn bool, faultBound float64) {
	*f = Fold{faultOn: faultOn, faultBound: faultBound, goodSince: -1}
}

// Sample folds one observation taken at time now: lo and hi are the
// extrema of the live nodes' logical clocks (+Inf/-Inf when every node
// is down).
//
//gcslint:zeroalloc
func (f *Fold) Sample(now, lo, hi float64) {
	spread := hi - lo
	if hi < lo {
		spread = 0 // every node down: no live pair to skew
	}
	if spread > f.Report.MaxGlobalSkew {
		f.Report.MaxGlobalSkew = spread
	}
	f.Report.FinalGlobalSkew = spread
	if f.faultOn {
		if spread > f.faultBound {
			f.goodSince = -1
		} else if f.goodSince < 0 {
			f.goodSince = now
		}
	}
	f.Report.Samples++
	f.lastT = now
}

// Adjacent folds the logical readings at the two endpoints of one
// current edge into the adjacent skew. A crashed endpoint reads NaN,
// which fails the comparison, so edges at down nodes drop out for free.
//
//gcslint:zeroalloc
func (f *Fold) Adjacent(lu, lv float64) {
	if d := math.Abs(lu - lv); d > f.Report.MaxAdjacentSkew {
		f.Report.MaxAdjacentSkew = d
	}
}

// ResetTotals clears the per-node totals before an AddNode pass, so a
// report can be rebuilt from node snapshots any number of times and
// count each jump, message and beacon exactly once.
func (f *Fold) ResetTotals() {
	r := &f.Report
	r.MinRateSeen, r.MaxRateSeen = math.Inf(1), math.Inf(-1)
	r.TotalJumps, r.TotalMessages, r.TotalBeacons, r.TotalDiscoveries = 0, 0, 0, 0
}

// AddNode folds one node's hardware-rate bounds and counters.
func (f *Fold) AddNode(minRate, maxRate float64, snap gcs.Snapshot) {
	r := &f.Report
	if minRate < r.MinRateSeen {
		r.MinRateSeen = minRate
	}
	if maxRate > r.MaxRateSeen {
		r.MaxRateSeen = maxRate
	}
	r.TotalJumps += snap.Jumps
	r.TotalMessages += snap.Messages
	r.TotalBeacons += snap.Beacons
	r.TotalDiscoveries += snap.Discoveries
}

// SetFaults records the run's merged fault stats and derives
// ReconvergenceTime from them and the time the skew last re-entered the
// bound: 0 when no fault fired or the skew never left the bound after
// the last fault, the re-entry delay otherwise, +Inf when still outside
// at the horizon.
func (f *Fold) SetFaults(fs fault.Stats) {
	f.Report.Faults = fs
	switch d := f.goodSince - fs.LastFaultT; {
	case fs.Total() == 0:
		f.Report.ReconvergenceTime = 0
	case f.goodSince < 0:
		f.Report.ReconvergenceTime = math.Inf(1)
	default:
		f.Report.ReconvergenceTime = math.Max(d, 0)
	}
}

// SkewPoint is one skew sample: its time and the extrema of the live
// nodes' logical clocks (+Inf/-Inf when every node is down).
type SkewPoint struct{ T, Lo, Hi float64 }

// core is the part of a DES harness that does not depend on how many
// engines execute it. Simulation is the core with one engine;
// ParallelSim is the core with one engine per shard. Both draw every
// delay from the core's one law (transport.Delays: the sender's own
// stream) and sample through the same path (observe: one serial scan,
// the exact gradient check, the skew series), so a harness fills in only
// the two parameters below, then wires a run as begin → Net (new, or
// Reset, with delayFn) → arm.
type core struct {
	Cfg    Config
	Graph  *dyngraph.Dynamic
	Clocks []*clock.HardwareClock
	Nodes  []*gcs.Node
	// Net is the transport every node transmits through, one lane per
	// engine.
	Net *transport.Network

	// global carries the events that see every node at one consistent
	// instant (churn, fault chains, sampling); engineOf(i) carries node
	// i's clock, beacon timers and rate driver.
	global   *des.Engine
	engineOf func(i int) *des.Engine

	// allClocks/allNodes are the grow-only pools backing the public
	// slices, which are views of the first Cfg.N entries.
	allClocks []*clock.HardwareClock
	allNodes  []*gcs.Node
	drivers   []DriverState
	churn     ChurnState

	// Reseedable PRNG streams, one per subsystem, matching the fork ids a
	// fresh wiring would draw so reuse stays bit-identical.
	root      des.Rand
	driveRand des.Rand
	phaseRand des.Rand

	// delays is the run's delay law, rewired by begin.
	delays transport.Delays

	// Long-lived callbacks, bound once so rewiring and sampling allocate
	// nothing. delayFn draws from delays and is every harness's base
	// DelayFn.
	delayFn                  transport.DelayFn
	driveFn, crashFn, rateFn des.ArgHandler
	churnFn                  des.ArgHandler
	sampleFn                 func()
	edgeFn                   func(dyngraph.Edge)
	// onMessage is the single delivery handler shared by every node.
	onMessage transport.Handler

	// wired records that a first wiring has filled the graph and made the
	// one-time discovery subscription; edgeCfg/boundCfg key the cached
	// initial edge set and analytic bound.
	wired    bool
	edgeCfg  edgeKey
	boundCfg Config
	bound    float64
	// initialEdges is the backbone edge set materialized once per
	// topology shape and reused by the churn setup (Topology.Edges is
	// O(n) or worse, so it must not be recomputed per run).
	initialEdges []dyngraph.Edge

	// vals is the reused logical-clock sample buffer.
	vals []float64
	fold Fold
	// series holds one point per sample of the current run, in time
	// order; arm sizes it once and reuses it.
	series []SkewPoint
	// gradient, when non-nil (Config.CheckGradient), folds every sample
	// into per-distance skew buckets.
	gradient *GradientChecker
	// started records whether the periodic sampler has been installed.
	started bool

	// Fault-injection state (Config.Faults). msgPlan is the message-fault
	// plan (it keeps the grown stream table across rewires); Net draws
	// verdicts from it per send while the active plan has message faults.
	// injector holds the crash/recover and rate-excursion chains, stepped
	// by events on the global engine; downMask aliases its live mask so
	// sampling can exclude crashed nodes.
	msgPlan    fault.Messages
	injector   fault.Injector
	faultStats fault.Stats
	downMask   []bool
}

// edgeKey identifies the inputs the cached initial edge set depends on.
type edgeKey struct {
	topo TopologySpec
	n    int
	star bool
}

// init binds the long-lived callbacks; call once, with c at its final
// address.
func (c *core) init() {
	c.delayFn = func(m *transport.Message) float64 { return c.delays.Draw(m.From) }
	c.driveFn = c.driveStep
	c.churnFn = c.churnStep
	c.crashFn = c.crashStep
	c.rateFn = c.rateStep
	c.edgeFn = func(e dyngraph.Edge) { c.fold.Adjacent(c.vals[e.U], c.vals[e.V]) }
	c.onMessage = func(m transport.Message) { c.Nodes[m.To].OnMessage(m.From, m.Value) }
	c.sampleFn = func() {
		c.observe()
		c.global.ScheduleAfter(c.Cfg.SampleEvery, "sim.sample", c.sampleFn)
	}
}

// begin starts a rewire: it validates and defaults cfg, reseeds the
// root stream and the delay law and resets the graph to the (cached)
// initial edge set (a first wiring leaves filling it to arm). The
// harness resets its engines and Net next, then calls arm.
func (c *core) begin(cfg Config) Config {
	// New/Reset keep the panic contract for programmer errors; the
	// error-returning boundary is RunSweep, which validates every cell.
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	cfg = cfg.WithDefaults()
	c.Cfg = cfg
	c.root.Reseed(cfg.Seed)
	c.delays.Wire(cfg.MinDelay, cfg.MaxDelay, cfg.N, &c.root)

	star := cfg.Churn.Kind == ChurnRotatingStar
	if key := (edgeKey{topo: cfg.Topology, n: cfg.N, star: star}); key != c.edgeCfg {
		if star {
			c.initialEdges = nil
		} else {
			c.initialEdges = cfg.Topology.Edges(cfg.N)
		}
		c.edgeCfg = key
	}
	if c.Graph == nil {
		// A first wiring binds the transport and nodes to an empty graph and
		// lets arm fill it once the node pools exist: the edge maps are the
		// most pointer-dense part of the heap, and every collection the
		// growing pools trigger would otherwise mark them again.
		c.Graph = dyngraph.NewDynamic(cfg.N, nil)
	} else {
		c.Graph.Reset(cfg.N, c.initialEdges)
	}
	return cfg
}

// arm finishes a rewire once the harness's engines and Net are reset.
// The order below assigns the tie-breaking event sequence numbers and is
// part of the physics: drivers per node, churn, node start phases, fault
// chains; the sampler follows on the first advance.
func (c *core) arm() {
	cfg := &c.Cfg
	n := cfg.N

	// Grow the node/clock pools up to n, then reset the live prefix. Each
	// growth is one clock slab and one node slab, set up in place. Nodes
	// are wired straight to Net and the (stable) graph through the
	// harness seam.
	if have := len(c.allClocks); have < n {
		c.allClocks = append(make([]*clock.HardwareClock, 0, n), c.allClocks...)
		c.allNodes = append(make([]*gcs.Node, 0, n), c.allNodes...)
		clocks := make([]clock.HardwareClock, n-have)
		nodes := make([]gcs.Node, n-have)
		for j := range clocks {
			i := have + j
			clocks[j].Init(c.engineOf(i), 1)
			nodes[j].Init(i, &clocks[j], cfg.Node, c.Net, c.Graph)
			c.allClocks = append(c.allClocks, &clocks[j])
			c.allNodes = append(c.allNodes, &nodes[j])
		}
	}
	c.Clocks = c.allClocks[:n]
	c.Nodes = c.allNodes[:n]
	if !c.wired {
		c.Graph.Reset(n, c.initialEdges) // deferred by begin
	}
	if cap(c.drivers) < n {
		c.drivers = make([]DriverState, n)
	}
	c.drivers = c.drivers[:n]

	c.root.ForkInto(0xd81fe, &c.driveRand)
	for i := 0; i < n; i++ {
		c.Clocks[i].Reset(1)
		c.Nodes[i].Reset(cfg.Node)
		c.Net.SetHandler(i, c.onMessage)
		c.drivers[i].Start(i, &c.driveRand)
		c.driveStep(uint64(i))
	}

	// Neighbor discovery: subscribe before churn starts, so even edges a
	// churn process adds at time 0 trigger an immediate beacon exchange
	// across the fresh edge. The graph keeps its subscribers across Reset,
	// so this happens exactly once.
	if !c.wired {
		c.Graph.Subscribe(discovery{c})
		c.wired = true
	}
	for _, ev := range c.churn.Start(cfg, &c.root, c.initialEdges, c.Graph) {
		c.afterChurn(ev)
	}

	c.root.ForkInto(0x9a5e, &c.phaseRand)
	for i := 0; i < n; i++ {
		c.Nodes[i].Start(c.phaseRand.Range(0, cfg.Node.BeaconEvery))
	}

	c.armFaults()
	c.gradient = wireGradient(c.gradient, *cfg)
	if cap(c.vals) < n {
		c.vals = make([]float64, n)
	}
	c.vals = c.vals[:n]
	// One point per sampling period from t = 0, plus a final one at the
	// horizon. Presizing stops at maxPresized points: a longer run grows
	// the series as it samples instead of reserving it all up front.
	if want := min(int(math.Ceil(cfg.Horizon/cfg.SampleEvery))+2, maxPresized); cap(c.series) < want {
		c.series = make([]SkewPoint, 0, want)
	}
	c.series = c.series[:0]
	c.started = false
}

// maxPresized caps the skew series arm reserves for one run (1.5 MiB).
const maxPresized = 1 << 16

// driveStep is node arg's rate-driver event: apply the chain's next rate
// and schedule the following step on the node's own engine. arm calls it
// directly at time 0, so each driver label is scheduled from here only.
//
//gcslint:zeroalloc
func (c *core) driveStep(arg uint64) {
	i := int(arg)
	rate, next := c.drivers[i].Step(c.Cfg.Driver, c.Cfg.Rho)
	c.Clocks[i].SetRate(rate)
	if next < 0 {
		return
	}
	label := "clock.walk"
	switch c.Cfg.Driver.Kind {
	case DriveBangBang:
		label = "clock.bang"
	case DriveConstant: // only an Eq. (1) head start has a next step
		label = "clock.rate"
	}
	c.engineOf(i).ScheduleAfterArg(next, label, c.driveFn, arg)
}

// churnStep is the run's churn event. It runs on the global engine, so
// in the sharded harness every shard is barriered while the graph (and
// through discovery, the endpoint nodes) change.
//
//gcslint:zeroalloc
func (c *core) churnStep(arg uint64) {
	first, second := c.churn.Step(arg, c.global.Now(), c.Graph)
	c.afterChurn(first)
	c.afterChurn(second)
}

// afterChurn schedules churn event ev unless there is none.
func (c *core) afterChurn(ev ChurnEvent) {
	if ev.After >= 0 {
		c.global.ScheduleAfterArg(ev.After, ev.Label, c.churnFn, ev.Arg)
	}
}

// armFaults arms fault injection for one run. The fault root is forked
// from the scenario root (never advancing it, so a zero-valued Spec
// leaves every other stream bit-identical). Net draws message verdicts
// from msgPlan, installed here — after everything arm sends while wiring
// at time 0 (discovery over a rotating star's first edges), which
// therefore draws no verdict, and removed again by the next Net.Reset.
// The crash/recover and rate-excursion chains run as events on the
// global engine — with every shard barriered in the sharded harness, so
// touching any node or clock from them is safe and deterministic.
func (c *core) armFaults() {
	cfg := &c.Cfg
	c.downMask = nil
	c.faultStats = fault.Stats{}
	if !cfg.Faults.Enabled() {
		c.fold.Reset(false, 0)
		return
	}
	var faultRoot des.Rand
	c.root.ForkInto(0xfa07, &faultRoot)
	if cfg.Faults.MessageFaults() {
		c.msgPlan.Wire(cfg.Faults, cfg.MaxDelay, cfg.N, &faultRoot)
		c.Net.SetFaults(&c.msgPlan)
	}
	c.injector.Wire(cfg.Faults, cfg.N, cfg.Rho, &faultRoot)
	c.downMask = c.injector.Down()
	for i := 0; i < cfg.N; i++ {
		c.afterFault(c.injector.CrashStart(i), "fault.crash", c.crashFn, i)
	}
	for i := 0; i < cfg.N; i++ {
		c.afterFault(c.injector.RateStart(i), "fault.rate", c.rateFn, i)
	}
	c.fold.Reset(true, c.boundFor())
}

// afterFault schedules node i's next fault-chain step unless the chain
// has ended.
func (c *core) afterFault(next float64, label string, fn des.ArgHandler, i int) {
	if next >= 0 {
		c.global.ScheduleAfterArg(next, label, fn, uint64(i))
	}
}

func (c *core) crashStep(arg uint64) {
	i := int(arg)
	down, next := c.injector.CrashStep(i, c.global.Now(), &c.faultStats)
	if down {
		c.Nodes[i].Crash()
		c.afterFault(next, "fault.recover", c.crashFn, i)
		return
	}
	c.Nodes[i].Recover()
	c.afterFault(next, "fault.crash", c.crashFn, i)
}

func (c *core) rateStep(arg uint64) {
	i := int(arg)
	rate, next := c.injector.RateStep(i, c.global.Now(), &c.faultStats)
	c.Clocks[i].SetRate(rate)
	// An excursion's rate is strictly out of band, so only its end sets 1.
	label := "fault.rate"
	if rate != 1 {
		label = "fault.rate.end"
	}
	c.afterFault(next, label, c.rateFn, i)
}

// wireGradient returns the checker for cfg, reusing prev when it was
// sized for the same node count (reset in place) and replacing it
// otherwise; nil when the check is off.
func wireGradient(prev *GradientChecker, cfg Config) *GradientChecker {
	if !cfg.CheckGradient {
		return nil
	}
	if prev == nil || len(prev.maxByDist) != cfg.N {
		return newGradientChecker(cfg.N)
	}
	prev.reset()
	return prev
}

// discovery relays topology events to the algorithm layer as the
// paper's discover(add)/discover(remove), with zero discover delay: both
// endpoints of a fresh edge beacon immediately over it instead of
// waiting up to BeaconEvery, which is what the paper's catch-up
// argument assumes of nodes that become adjacent, and both endpoints of
// a lost edge stop counting each other as neighbors. Churn mutates the
// graph only from global-engine events, so in the sharded harness the
// handlers run serially with every shard barriered.
type discovery struct{ c *core }

func (d discovery) EdgeAdded(t float64, e dyngraph.Edge) {
	d.c.Nodes[e.U].OnEdgeAdded(e.V)
	d.c.Nodes[e.V].OnEdgeAdded(e.U)
}

func (d discovery) EdgeRemoved(t float64, e dyngraph.Edge) {
	d.c.Nodes[e.U].OnEdgeRemoved(e.V)
	d.c.Nodes[e.V].OnEdgeRemoved(e.U)
}

// scan reads every node into vals and returns the extrema of the live
// ones. Every engine is at the sample instant, so on the sharded harness
// too this is one serial pass over consistent clocks.
//
//gcslint:zeroalloc
func (c *core) scan() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range c.vals {
		if c.downMask != nil && c.downMask[i] {
			// A crashed node has no logical clock. Poisoning its sample with
			// NaN makes every consumer skip it for free: NaN fails the lo/hi
			// comparisons here, Fold.Adjacent's |L_u - L_v| > max test, and
			// the gradient checker's bucket comparisons.
			c.vals[i] = math.NaN()
			continue
		}
		l := c.Nodes[i].Logical()
		c.vals[i] = l
		if l < lo {
			lo = l
		}
		if l > hi {
			hi = l
		}
	}
	return lo, hi
}

// observe records one skew sample at the global engine's current time,
// when every node is at that same instant. It reuses the sample buffer,
// the presized series and the edge observer, so sampling allocates
// nothing.
//
//gcslint:zeroalloc
func (c *core) observe() {
	lo, hi := c.scan()
	now := c.global.Now()
	c.series = append(c.series, SkewPoint{T: now, Lo: lo, Hi: hi})
	if c.gradient != nil {
		c.gradient.observe(c.Graph, c.vals)
	}
	// Max over edges is order-independent, so the unordered allocation-free
	// iteration is deterministic in its result.
	c.Graph.RangeCurrentEdges(c.edgeFn)
	c.fold.Sample(now, lo, hi)
}

// startSampler installs the periodic skew sampler on first call.
func (c *core) startSampler() {
	if !c.started {
		c.started = true
		c.global.Schedule(c.global.Now(), "sim.sample", c.sampleFn)
	}
}

// boundFor returns the analytic global skew bound for Cfg, cached across
// runs: GlobalSkewBound materializes the topology and runs a BFS, so a
// reused simulation must not recompute it per run. The cache keys on
// every field the bound depends on (Seed, Horizon, SampleEvery, Driver
// and CheckGradient do not affect it).
func (c *core) boundFor() float64 {
	key := c.Cfg
	key.Seed = 0
	key.Horizon = 0
	key.SampleEvery = 0
	key.Driver = DriverSpec{}
	key.CheckGradient = false
	key.Parallel = false
	key.Shards = 0
	key.Workers = 0
	key.MinDelay = 0
	key.Faults = FaultSpec{}
	if key != c.boundCfg { // the zero key (N = 0) matches no valid config
		c.bound = c.Cfg.GlobalSkewBound()
		c.boundCfg = key
	}
	return c.bound
}

// finalise builds the report once the engines have reached the horizon.
// The harness supplies what only it can count: its engines' fired-event
// total. Everything is recomputed from live state on every call, so a
// harness's Run is idempotent.
func (c *core) finalise(executed uint64) SkewReport {
	// End-of-run state at exactly the horizon, unless the periodic
	// sampler already landed there (Horizon a multiple of SampleEvery).
	if c.fold.Report.Samples == 0 || c.fold.lastT < c.Cfg.Horizon {
		c.observe()
	}
	rep := &c.fold.Report
	rep.Bound = c.boundFor()
	rep.Transport = c.Net.Stats()
	rep.EventsExecuted = executed
	rep.EdgeAdds, rep.EdgeRemoves = c.Graph.Stats()
	if c.gradient != nil {
		rep.PerDistanceSkew = c.gradient.PerDistance()
		rep.DistanceRecomputes = c.gradient.Recomputes()
	}
	c.fold.ResetTotals()
	for i, hw := range c.Clocks {
		mn, mx := hw.RateBoundsSeen()
		c.fold.AddNode(mn, mx, c.Nodes[i].Snap())
	}
	if c.Cfg.Faults.Enabled() {
		faults := c.Net.FaultStats()
		faults.Merge(c.faultStats)
		c.fold.SetFaults(faults)
	}
	return *rep
}
