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

// Streams is the layout of a run's PRNG streams below its root stream
// (des.NewRand(Seed)): the rate drivers', the beacon start phases' and
// the fault plan's, each at a fixed fork id. Both harnesses fork them
// here, so from one seed they draw the same driver chains, start phases
// and fault chains. Forking never advances the root.
type Streams struct{ Drive, Phase, Fault des.Rand }

// Fork derives every stream from root.
func (st *Streams) Fork(root *des.Rand) {
	root.ForkInto(0xd81fe, &st.Drive)
	root.ForkInto(0x9a5e, &st.Phase)
	root.ForkInto(0xfa07, &st.Fault)
}

// Fold is the one owner of a skew sample and of the report's observed
// fields, for both harnesses. Each harness reads its nodes its own way
// (one serial scan in the DES, under host locks in rt) into vals, NaN
// for a down node, and hands the fold the raw readings: Sample and Edges
// per observation, Finish once at the end.
type Fold struct {
	rep SkewReport
	// faultOn and goodSince track when the global skew last re-entered
	// the analytic bound (-1 while outside), feeding ReconvergenceTime.
	faultOn   bool
	goodSince float64
}

// Reset clears the fold for a new run of the defaulted cfg.
func (f *Fold) Reset(cfg *Config) {
	*f = Fold{rep: SkewReport{Bound: cfg.GlobalSkewBound()}, faultOn: cfg.Faults.Enabled(), goodSince: -1}
}

// Sample folds one observation taken at time now, vals[i] being node
// i's logical clock or NaN while it is down, into the global skew and
// re-convergence, and returns the extrema of the live readings
// (+Inf/-Inf when every node is down). NaN fails every comparison, so a
// down node moves neither end.
//
//gcslint:zeroalloc
func (f *Fold) Sample(now float64, vals []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	spread := hi - lo
	if hi < lo {
		spread = 0 // every node down: no live pair to skew
	}
	r := &f.rep
	r.MaxGlobalSkew = max(r.MaxGlobalSkew, spread)
	r.FinalGlobalSkew = spread
	if f.faultOn {
		if spread > r.Bound {
			f.goodSince = -1
		} else if f.goodSince < 0 {
			f.goodSince = now
		}
	}
	r.Samples++
	return lo, hi
}

// Edges folds the readings of one sample over g's current edges into the
// adjacent skew. Each edge is read from both ends: |a-b| equals |b-a|
// exactly and a maximum is order-free, so that is the one-sided fold bit
// for bit. An edge at a down node reads NaN and fails the comparison.
//
//gcslint:zeroalloc
func (f *Fold) Edges(g *dyngraph.Dynamic, vals []float64) {
	m := f.rep.MaxAdjacentSkew
	for u, a := range vals {
		for _, k := range g.Links(u) {
			if d := math.Abs(a - vals[k.V]); d > m {
				m = d
			}
		}
	}
	f.rep.MaxAdjacentSkew = m
}

// Finish completes the report from the end state of a run: every
// node's hardware-rate bounds and counters and, when the run injects
// faults, their merged stats fs with the ReconvergenceTime they imply
// (0 when no fault fired or the skew never left the bound after the
// last one, the re-entry delay otherwise, +Inf when still outside at the
// horizon). It returns the report for the harness to add what only it
// knows: transport, event and edge counts. The totals are recomputed on
// every call, so a run can be finished more than once.
func (f *Fold) Finish(clocks []*clock.HardwareClock, nodes []*gcs.Node, fs fault.Stats) *SkewReport {
	r := &f.rep
	r.MinRateSeen, r.MaxRateSeen = math.Inf(1), math.Inf(-1)
	r.TotalJumps, r.TotalMessages, r.TotalBeacons, r.TotalDiscoveries = 0, 0, 0, 0
	for i, nd := range nodes {
		mn, mx := clocks[i].RateBoundsSeen()
		r.MinRateSeen, r.MaxRateSeen = min(r.MinRateSeen, mn), max(r.MaxRateSeen, mx)
		snap := nd.Snap()
		r.TotalJumps += snap.Jumps
		r.TotalMessages += snap.Messages
		r.TotalBeacons += snap.Beacons
		r.TotalDiscoveries += snap.Discoveries
	}
	if f.faultOn {
		r.Faults = fs
		switch d := f.goodSince - fs.LastFaultT; {
		case fs.Total() == 0:
			r.ReconvergenceTime = 0
		case f.goodSince < 0:
			r.ReconvergenceTime = math.Inf(1)
		default:
			r.ReconvergenceTime = math.Max(d, 0)
		}
	}
	return r
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
	s.onMessage = func(m transport.Message) { s.Nodes[m.To].OnMessage(m.From, m.Value) }
	s.sampleFn = func(uint64) {
		s.observe()
		s.Engine.ScheduleAfterArg(s.Cfg.SampleEvery, "sim.sample", s.sampleFn, 0)
	}
}

// arm finishes a rewire once Reset has reset the engine set and Net.
// The order below assigns the tie-breaking event sequence numbers and is
// part of the physics: drivers per node, churn, node start phases, the
// lower bound's head starts, fault chains, the skew sampler.
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

	s.streams.Fork(&s.root)
	for i := 0; i < n; i++ {
		s.Clocks[i].Reset(1)
		s.Nodes[i].Reset()
		s.Net.SetHandler(i, s.onMessage)
		s.drivers[i].Start(i, &s.streams.Drive)
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
		chainStep(s.Engine, ev.After, ev.Label, s.churnFn, ev.Arg)
	}

	for i := 0; i < n; i++ {
		s.Nodes[i].Start(s.streams.Phase.Range(0, cfg.Node.BeaconEvery))
	}

	// The Eq. (1) schedule (Section 4) of a node at flexible distance d
	// from node 0 is H(t) = t + min(rho*t, MaxDelay*d): rate 1+rho until
	// t = MaxDelay*d/rho, then 1. Each driver took its rate-1 step above;
	// this second step starts the head start at time 0.
	if cfg.LowerBoundEps != 0 {
		for v := range n {
			s.drivers[v].lead = cfg.MaxDelay * float64(flexibleDist(n, v)) / cfg.Rho
			s.driveStep(uint64(v))
		}
	}

	s.armFaults()
	s.fold.Reset(cfg)
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
	s.Engine.ScheduleArg(0, "sim.sample", s.sampleFn, 0)
}

// maxPresized caps the skew series arm reserves for one run (1.5 MiB).
const maxPresized = 1 << 16

// driveStep is node arg's rate-driver event: apply the chain's next rate
// and schedule the following step on the node's own engine. arm calls it
// directly at time 0, so each driver label is scheduled from here only.
// It sets its rate inside a rate excursion too, ending the excursion's
// out-of-band rate early (ROADMAP 23).
//
//gcslint:zeroalloc
func (s *Simulation) driveStep(arg uint64) {
	i := int(arg)
	rate, next := s.drivers[i].Step(s.Cfg.Driver, s.Cfg.Rho)
	s.Clocks[i].SetRate(rate)
	label := "clock.walk"
	switch s.Cfg.Driver.Kind {
	case DriveBangBang:
		label = "clock.bang"
	case DriveConstant: // only an Eq. (1) head start has a next step
		label = "clock.rate"
	}
	chainStep(s.engineOf(i), next, label, s.driveFn, arg)
}

// churnStep is the run's churn event. It runs on the global engine, so
// every shard is barriered while the graph (and through discovery, the
// endpoint nodes) change.
//
//gcslint:zeroalloc
func (s *Simulation) churnStep(arg uint64) {
	first, second := s.churn.Step(arg, s.Engine.Now(), s.Graph)
	chainStep(s.Engine, first.After, first.Label, s.churnFn, first.Arg)
	chainStep(s.Engine, second.After, second.Label, s.churnFn, second.Arg)
}

// chainStep schedules a chain's next step fn(arg) on en, next seconds
// from now, unless next is negative: the chain has ended. Every driver,
// churn and fault chain schedules its steps through it.
//
//gcslint:zeroalloc
func chainStep(en *des.Engine, next float64, label string, fn des.ArgHandler, arg uint64) {
	if next >= 0 {
		en.ScheduleAfterArg(next, label, fn, arg)
	}
}

// armFaults arms fault injection for one run from the fault stream,
// which only it draws from, so a zero-valued Spec leaves every other
// stream bit-identical. Net draws message verdicts
// from msgPlan, installed here — after everything arm sends while wiring
// at time 0 (discovery over a rotating star's first edges), which
// therefore draws no verdict, and removed again by the next Net.Reset.
// The crash/recover and rate-excursion chains run as events on the
// global engine — with every shard barriered, so touching any node or
// clock from them is safe and deterministic.
func (s *Simulation) armFaults() {
	cfg := &s.Cfg
	s.faultStats = fault.Stats{}
	if !cfg.Faults.Enabled() {
		return
	}
	if cfg.Faults.MessageFaults() {
		s.msgPlan.Wire(cfg.Faults, cfg.MaxDelay, cfg.N, &s.streams.Fault)
		s.Net.SetFaults(&s.msgPlan)
	}
	s.injector.Wire(cfg.Faults, cfg.N, cfg.Rho, &s.streams.Fault)
	for i := range cfg.N {
		chainStep(s.Engine, s.injector.CrashStart(i), "fault.crash", s.crashFn, uint64(i))
	}
	for i := range cfg.N {
		chainStep(s.Engine, s.injector.RateStart(i), "fault.rate", s.rateFn, uint64(i))
	}
}

func (s *Simulation) crashStep(arg uint64) {
	i := int(arg)
	down, next := s.injector.CrashStep(i, s.Engine.Now(), &s.faultStats)
	if down {
		s.Nodes[i].Crash()
		chainStep(s.Engine, next, "fault.recover", s.crashFn, arg)
		return
	}
	s.Nodes[i].Recover()
	chainStep(s.Engine, next, "fault.crash", s.crashFn, arg)
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
	chainStep(s.Engine, next, label, s.rateFn, arg)
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

// observe records one skew sample at the global engine's current time,
// when every node is at that same instant, so one serial pass reads
// consistent clocks on many shards too. A crashed node has no logical
// clock: it reads NaN, which every consumer skips for free. Sampling
// reuses the sample buffer and the presized series, so it allocates
// nothing.
//
//gcslint:zeroalloc
func (s *Simulation) observe() {
	for i, nd := range s.Nodes {
		s.vals[i] = math.NaN()
		if !nd.Down() {
			s.vals[i] = nd.Logical()
		}
	}
	now := s.Engine.Now()
	lo, hi := s.fold.Sample(now, s.vals)
	s.series = append(s.series, SkewPoint{T: now, Lo: lo, Hi: hi})
	if s.gradient != nil {
		s.gradient.observe(s.Graph, s.vals, hi-lo)
	}
	s.fold.Edges(s.Graph, s.vals)
}

// finalise builds the report once the engines have reached the horizon,
// executed being their fired-event total. Everything is recomputed from
// live state on every call, so Run is idempotent.
func (s *Simulation) finalise(executed uint64) SkewReport {
	// End-of-run state at exactly the horizon, unless the periodic
	// sampler already landed there (Horizon a multiple of SampleEvery).
	if k := len(s.series); k == 0 || s.series[k-1].T < s.Cfg.Horizon {
		s.observe()
	}
	faults := s.Net.FaultStats()
	faults.Merge(s.faultStats)
	rep := s.fold.Finish(s.Clocks, s.Nodes, faults)
	rep.Transport = s.Net.Stats()
	rep.EventsExecuted = executed
	rep.EdgeAdds, rep.EdgeRemoves = s.Graph.Stats()
	if s.gradient != nil {
		rep.PerDistanceSkew = s.gradient.PerDistance()
		rep.DistanceRecomputes = s.gradient.Recomputes()
	}
	return *rep
}
