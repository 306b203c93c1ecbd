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
	// lead is the delay to the end of the lower bound's Eq. (1) head
	// start at rate 1+rho (arm sets it), zero when there is none.
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

// Step advances the chain: it returns the hardware rate the node runs
// at from now on and the delay to the next step, negative when there is
// none (the constant driver sets its rate once, after any head start
// arm gave it). Like the fault chains of fault.Injector it leaves
// turning that delay into a future call to the harness — a DES event in
// core.driveStep, a re-armed wall timer in internal/rt — so the chain
// logic exists once.
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
// It is the one definition of the report's observed fields for both
// harnesses: each reads its nodes its own way (one serial scan in the
// DES, under host locks in rt) and hands the fold the
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

// edgeKey identifies the inputs the cached initial edge set depends on.
type edgeKey struct {
	topo TopologySpec
	n    int
	star bool
}

// init binds the long-lived callbacks; call once, with s at its final
// address.
func (s *Simulation) init() {
	s.delayFn = func(m *transport.Message) float64 { return s.delays.Draw(m.From) }
	s.fireFn = func(arg uint64) { s.Clocks[arg].Fire() }
	s.driveFn = s.driveStep
	s.churnFn = s.churnStep
	s.crashFn = s.crashStep
	s.rateFn = s.rateStep
	s.edgeFn = func(e dyngraph.Edge) { s.fold.Adjacent(s.vals[e.U], s.vals[e.V]) }
	s.onMessage = func(m transport.Message) { s.Nodes[m.To].OnMessage(m.From, m.Value) }
	s.sampleFn = func() {
		s.observe()
		s.Engine.ScheduleAfter(s.Cfg.SampleEvery, "sim.sample", s.sampleFn)
	}
}

// arm finishes a rewire once Reset has reset the engine set and Net.
// The order below assigns the tie-breaking event sequence numbers and is
// part of the physics: drivers per node, churn, node start phases, the
// lower bound's head starts, fault chains; the sampler follows on the
// first advance.
func (s *Simulation) arm() {
	cfg := &s.Cfg
	n := cfg.N

	// Grow the node/clock pools up to n, then reset the live prefix. Each
	// growth is one clock slab and one node slab, set up in place. Every
	// clock fires through fireFn with its index, and every node reads the
	// run's parameters and its wiring to Net and the (stable) graph from
	// s.shared, set here before any node is reset against it.
	s.shared.Set(cfg.Node, s.Net, s.Graph)
	if have := len(s.allClocks); have < n {
		s.allClocks = append(make([]*clock.HardwareClock, 0, n), s.allClocks...)
		s.allNodes = append(make([]*gcs.Node, 0, n), s.allNodes...)
		clocks := make([]clock.HardwareClock, n-have)
		nodes := make([]gcs.Node, n-have)
		for j := range clocks {
			i := have + j
			clocks[j].Init(s.engineOf(i), 1, s.fireFn, uint64(i))
			nodes[j].Init(i, &clocks[j], &s.shared)
			s.allClocks = append(s.allClocks, &clocks[j])
			s.allNodes = append(s.allNodes, &nodes[j])
		}
	}
	s.Clocks = s.allClocks[:n]
	s.Nodes = s.allNodes[:n]
	if !s.wired {
		s.Graph.Reset(n, s.initialEdges) // deferred by Reset
	}
	if cap(s.drivers) < n {
		s.drivers = make([]DriverState, n)
	}
	s.drivers = s.drivers[:n]

	s.root.ForkInto(0xd81fe, &s.driveRand)
	for i := 0; i < n; i++ {
		s.Clocks[i].Reset(1)
		s.Nodes[i].Reset(cfg.Node)
		s.Net.SetHandler(i, s.onMessage)
		s.drivers[i].Start(i, &s.driveRand)
		s.driveStep(uint64(i))
	}

	// Neighbor discovery: subscribe before churn starts, so even edges a
	// churn process adds at time 0 trigger an immediate beacon exchange
	// across the fresh edge. The graph keeps its subscribers across Reset,
	// so this happens exactly once.
	if !s.wired {
		s.Graph.Subscribe(discovery{s})
		s.wired = true
	}
	for _, ev := range s.churn.Start(cfg, &s.root, s.initialEdges, s.Graph) {
		s.afterChurn(ev)
	}

	s.root.ForkInto(0x9a5e, &s.phaseRand)
	for i := 0; i < n; i++ {
		s.Nodes[i].Start(s.phaseRand.Range(0, cfg.Node.BeaconEvery))
	}

	// The Eq. (1) schedule (Section 4) of a node at flexible distance d
	// from node 0 is H(t) = t + min(rho*t, MaxDelay*d): rate 1+rho until
	// t = MaxDelay*d/rho, then 1. Each driver took its rate-1 step above;
	// this second step starts the head start at time 0.
	if cfg.LowerBoundEps != 0 {
		for v, d := range s.lbDists {
			s.drivers[v].lead = cfg.MaxDelay * float64(d) / cfg.Rho
			s.driveStep(uint64(v))
		}
	}

	s.armFaults()
	s.gradient = wireGradient(s.gradient, *cfg)
	if cap(s.vals) < n {
		s.vals = make([]float64, n)
	}
	s.vals = s.vals[:n]
	// One point per sampling period from t = 0, plus a final one at the
	// horizon. Presizing stops at maxPresized points: a longer run grows
	// the series as it samples instead of reserving it all up front.
	if want := min(int(math.Ceil(cfg.Horizon/cfg.SampleEvery))+2, maxPresized); cap(s.series) < want {
		s.series = make([]SkewPoint, 0, want)
	}
	s.series = s.series[:0]
	s.started = false
}

// maxPresized caps the skew series arm reserves for one run (1.5 MiB).
const maxPresized = 1 << 16

// driveStep is node arg's rate-driver event: apply the chain's next rate
// and schedule the following step on the node's own engine. arm calls it
// directly at time 0, so each driver label is scheduled from here only.
//
//gcslint:zeroalloc
func (s *Simulation) driveStep(arg uint64) {
	i := int(arg)
	rate, next := s.drivers[i].Step(s.Cfg.Driver, s.Cfg.Rho)
	s.Clocks[i].SetRate(rate)
	if next < 0 {
		return
	}
	label := "clock.walk"
	switch s.Cfg.Driver.Kind {
	case DriveBangBang:
		label = "clock.bang"
	case DriveConstant: // only an Eq. (1) head start has a next step
		label = "clock.rate"
	}
	s.engineOf(i).ScheduleAfterArg(next, label, s.driveFn, arg)
}

// churnStep is the run's churn event. It runs on the global engine, so
// every shard is barriered while the graph (and through discovery, the
// endpoint nodes) change.
//
//gcslint:zeroalloc
func (s *Simulation) churnStep(arg uint64) {
	first, second := s.churn.Step(arg, s.Engine.Now(), s.Graph)
	s.afterChurn(first)
	s.afterChurn(second)
}

// afterChurn schedules churn event ev unless there is none.
func (s *Simulation) afterChurn(ev ChurnEvent) {
	if ev.After >= 0 {
		s.Engine.ScheduleAfterArg(ev.After, ev.Label, s.churnFn, ev.Arg)
	}
}

// armFaults arms fault injection for one run. The fault root is forked
// from the scenario root (never advancing it, so a zero-valued Spec
// leaves every other stream bit-identical). Net draws message verdicts
// from msgPlan, installed here — after everything arm sends while wiring
// at time 0 (discovery over a rotating star's first edges), which
// therefore draws no verdict, and removed again by the next Net.Reset.
// The crash/recover and rate-excursion chains run as events on the
// global engine — with every shard barriered, so touching any node or
// clock from them is safe and deterministic.
func (s *Simulation) armFaults() {
	cfg := &s.Cfg
	s.downMask = nil
	s.faultStats = fault.Stats{}
	if !cfg.Faults.Enabled() {
		s.fold.Reset(false, 0)
		return
	}
	var faultRoot des.Rand
	s.root.ForkInto(0xfa07, &faultRoot)
	if cfg.Faults.MessageFaults() {
		s.msgPlan.Wire(cfg.Faults, cfg.MaxDelay, cfg.N, &faultRoot)
		s.Net.SetFaults(&s.msgPlan)
	}
	s.injector.Wire(cfg.Faults, cfg.N, cfg.Rho, &faultRoot)
	s.downMask = s.injector.Down()
	for i := 0; i < cfg.N; i++ {
		s.afterFault(s.injector.CrashStart(i), "fault.crash", s.crashFn, i)
	}
	for i := 0; i < cfg.N; i++ {
		s.afterFault(s.injector.RateStart(i), "fault.rate", s.rateFn, i)
	}
	s.fold.Reset(true, s.boundFor())
}

// afterFault schedules node i's next fault-chain step unless the chain
// has ended.
func (s *Simulation) afterFault(next float64, label string, fn des.ArgHandler, i int) {
	if next >= 0 {
		s.Engine.ScheduleAfterArg(next, label, fn, uint64(i))
	}
}

func (s *Simulation) crashStep(arg uint64) {
	i := int(arg)
	down, next := s.injector.CrashStep(i, s.Engine.Now(), &s.faultStats)
	if down {
		s.Nodes[i].Crash()
		s.afterFault(next, "fault.recover", s.crashFn, i)
		return
	}
	s.Nodes[i].Recover()
	s.afterFault(next, "fault.crash", s.crashFn, i)
}

func (s *Simulation) rateStep(arg uint64) {
	i := int(arg)
	rate, next := s.injector.RateStep(i, s.Engine.Now(), &s.faultStats)
	s.Clocks[i].SetRate(rate)
	// An excursion's rate is strictly out of band, so only its end sets 1.
	label := "fault.rate"
	if rate != 1 {
		label = "fault.rate.end"
	}
	s.afterFault(next, label, s.rateFn, i)
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
// graph only from global-engine events, so the handlers run serially
// with every shard barriered.
type discovery struct{ s *Simulation }

func (d discovery) EdgeAdded(t float64, e dyngraph.Edge) {
	d.s.Nodes[e.U].OnEdgeAdded(e.V)
	d.s.Nodes[e.V].OnEdgeAdded(e.U)
}

func (d discovery) EdgeRemoved(t float64, e dyngraph.Edge) {
	d.s.Nodes[e.U].OnEdgeRemoved(e.V)
	d.s.Nodes[e.V].OnEdgeRemoved(e.U)
}

// scan reads every node into vals and returns the extrema of the live
// ones. Every engine is at the sample instant, so on many shards too
// this is one serial pass over consistent clocks.
//
//gcslint:zeroalloc
func (s *Simulation) scan() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range s.vals {
		if s.downMask != nil && s.downMask[i] {
			// A crashed node has no logical clock. Poisoning its sample with
			// NaN makes every consumer skip it for free: NaN fails the lo/hi
			// comparisons here, Fold.Adjacent's |L_u - L_v| > max test, and
			// the gradient checker's bucket comparisons.
			s.vals[i] = math.NaN()
			continue
		}
		l := s.Nodes[i].Logical()
		s.vals[i] = l
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
func (s *Simulation) observe() {
	lo, hi := s.scan()
	now := s.Engine.Now()
	s.series = append(s.series, SkewPoint{T: now, Lo: lo, Hi: hi})
	if s.gradient != nil {
		s.gradient.observe(s.Graph, s.vals)
	}
	// Max over edges is order-independent, so the unordered allocation-free
	// iteration is deterministic in its result.
	s.Graph.RangeCurrentEdges(s.edgeFn)
	s.fold.Sample(now, lo, hi)
}

// startSampler installs the periodic skew sampler on first call.
func (s *Simulation) startSampler() {
	if !s.started {
		s.started = true
		s.Engine.Schedule(s.Engine.Now(), "sim.sample", s.sampleFn)
	}
}

// boundFor returns the analytic global skew bound for Cfg, cached across
// runs: GlobalSkewBound materializes the topology and runs a BFS, so a
// reused simulation must not recompute it per run. The cache keys on
// every field the bound depends on (Seed, Horizon, SampleEvery, Driver
// and CheckGradient do not affect it).
func (s *Simulation) boundFor() float64 {
	key := s.Cfg
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
	if key != s.boundCfg { // the zero key (N = 0) matches no valid config
		s.bound = s.Cfg.GlobalSkewBound()
		s.boundCfg = key
	}
	return s.bound
}

// finalise builds the report once the engines have reached the horizon,
// executed being their fired-event total. Everything is recomputed from
// live state on every call, so Run is idempotent.
func (s *Simulation) finalise(executed uint64) SkewReport {
	// End-of-run state at exactly the horizon, unless the periodic
	// sampler already landed there (Horizon a multiple of SampleEvery).
	if s.fold.Report.Samples == 0 || s.fold.lastT < s.Cfg.Horizon {
		s.observe()
	}
	rep := &s.fold.Report
	rep.Bound = s.boundFor()
	rep.Transport = s.Net.Stats()
	rep.EventsExecuted = executed
	rep.EdgeAdds, rep.EdgeRemoves = s.Graph.Stats()
	if s.gradient != nil {
		rep.PerDistanceSkew = s.gradient.PerDistance()
		rep.DistanceRecomputes = s.gradient.Recomputes()
	}
	s.fold.ResetTotals()
	for i, hw := range s.Clocks {
		mn, mx := hw.RateBoundsSeen()
		s.fold.AddNode(mn, mx, s.Nodes[i].Snap())
	}
	if s.Cfg.Faults.Enabled() {
		faults := s.Net.FaultStats()
		faults.Merge(s.faultStats)
		s.fold.SetFaults(faults)
	}
	return *rep
}
