// Package rt is the real-time runtime: the same GCS node logic the DES
// harness runs (internal/gcs against the internal/seam interfaces), but
// executed as one goroutine per node over in-process channels, with
// per-node drifting wall clocks and genuinely concurrent bounded-delay
// message passing. Where the DES proves properties of the algorithm
// under a perfectly controlled event order, rt checks that those
// properties survive a real scheduler: the cross-harness validation
// suite runs the same scenarios through both and asserts both satisfy
// the same analytic skew bounds.
//
// One simulated time unit is one wall second. Under testing/synctest
// (GOEXPERIMENT=synctest) the wall clock is the bubble's fake clock, so
// a 10-unit horizon completes in milliseconds, timers fire in exact
// deadline order, and runs are deterministic; outside a bubble the same
// code runs against real time (the `gcsim realtime` subcommand).
//
// Concurrency structure:
//
//   - host: one per node. A mutex serializes the node's event
//     executions; a buffered channel feeds them to the node's
//     goroutine. Everything that touches gcs.Node state — timer
//     firings, deliveries, fault injections — is enqueued and runs
//     under the host lock on the host's goroutine.
//   - The node's hardware clock is the DES harness's clock.HardwareClock
//     over a wall-time base (the host): simulated time is wall time, and
//     the clock's one head firing is a wall timer that queues its Fire.
//   - Router (router.go): shared transport over a dyngraph.Dynamic under
//     an RWMutex, deliveries via time.AfterFunc into the receiver's
//     queue, dropped unless the edge existed throughout the flight. Lock
//     order is host -> router, never the reverse. Nodes learn
//     of topology changes through their queues (relay), after the router
//     write: until a host drains the notification its node may still
//     count a departed neighbor, or not yet count a new one — the paper's
//     bounded discover delay.
//   - Churn: the DES harness's steps (sim.ChurnState), each run by a wall
//     timer that writes the router and arms the steps that follow.
//   - The sampler runs on the Run caller's goroutine, sleeping between
//     skew observations; its sampling instants are offset by an
//     irrational-ish phase (0.382 of a period) so they never coincide
//     with driver flips or churn rotations.
package rt

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
	"gcs/internal/sim"
)

// samplePhase offsets sampling instants to (k+samplePhase)*SampleEvery,
// dodging exact coincidence with periodic drivers and churn (which fire
// at integer multiples of their intervals).
const samplePhase = 0.382

// wallRes is the hardware clocks' resolution in simulated seconds: wall
// timers count whole nanoseconds, so a subjective timer due within 1 ns
// fires at once rather than re-arming for a remainder no wall timer can
// express.
const wallRes = 1e-9

// durOf converts simulated seconds to a wall duration, rounding up to a
// whole nanosecond, so a delay never becomes zero (the transport law is
// (0, MaxDelay]) and a timer never fires before its simulated time.
func durOf(sec float64) time.Duration {
	if sec <= 0 {
		return 0
	}
	return time.Duration(math.Ceil(sec * float64(time.Second)))
}

// host owns one node's execution context: a goroutine draining an event
// queue, with a mutex held around each event so the sampler can take
// consistent off-goroutine readings between events. It is also its
// clock's clock.Base.
type host struct {
	r  *Runtime
	id int

	mu     sync.Mutex
	events chan func()

	clk  *clock.HardwareClock
	node *gcs.Node

	// driver is the node's rate-driver chain and fstats its share of the
	// fault counters.
	driver sim.DriverState
	fstats fault.Stats

	sendBuf []dyngraph.Link // reusable broadcast fan-out buffer

	// Reusable timers, each re-armed in place with a fixed callback: the
	// clock's head firing and the three self-rescheduling chains (driver
	// steps; crash/recover; excursion start/end).
	clockT, driverT, crashT, rateT *time.Timer
}

// Now, Arm and Disarm make the host its clock's Base. A firing that a
// Stop or re-arm raced still queues the clock's Fire, which ignores it.
func (h *host) Now() float64 { return h.r.simNow() }

func (h *host) Arm(at float64, _ string) { h.arm(&h.clockT, max(0, at-h.Now()), h.clk.Fire) }

func (h *host) Disarm() { stopTimer(h.clockT) }

// enqueue hands fn to the host's goroutine, giving up at shutdown.
// Never called while holding any host lock (timer and churn goroutines
// only), so a full queue blocks the producer without deadlock risk.
func (h *host) enqueue(fn func()) {
	select {
	case h.events <- fn:
	case <-h.r.done:
	}
}

// loop is the node goroutine: one event at a time, under the host lock.
func (h *host) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		select {
		case fn := <-h.events:
			h.mu.Lock()
			fn()
			h.mu.Unlock()
			h.r.events.Add(1)
		case <-h.r.done:
			return
		}
	}
}

// arm (re)schedules a chain timer d simulated seconds out; a negative d
// means the chain has ended and arms nothing. fn is bound on first use
// only — subsequent calls must pass the same chain step, which then
// re-runs on the host's goroutine per firing.
func (h *host) arm(tp **time.Timer, d float64, fn func()) {
	if d < 0 {
		return
	}
	dur := durOf(d)
	if *tp == nil {
		*tp = time.AfterFunc(dur, func() { h.enqueue(fn) })
		return
	}
	(*tp).Stop()
	(*tp).Reset(dur)
}

// stepDriver, stepCrash and stepRate are the host's three chains. The
// chain logic is the DES harness's (sim.DriverState, fault.Injector):
// each step returns the effect to apply and the delay to the next step,
// and the only thing done here is turning that delay into a wall timer.
// As there, a driver step inside a rate excursion sets its own in-band
// rate (ROADMAP 23).

func (h *host) stepDriver() {
	rate, next := h.driver.Step(h.r.cfg.Driver, h.r.cfg.Rho)
	h.clk.SetRate(rate)
	h.arm(&h.driverT, next, h.stepDriver)
}

func (h *host) stepCrash() {
	down, next := h.r.injector.CrashStep(h.id, h.r.simNow(), &h.fstats)
	if down {
		h.node.Crash()
	} else {
		h.node.Recover()
	}
	h.arm(&h.crashT, next, h.stepCrash)
}

func (h *host) stepRate() {
	rate, next := h.r.injector.RateStep(h.id, h.r.simNow(), &h.fstats)
	h.clk.SetRate(rate)
	h.arm(&h.rateT, next, h.stepRate)
}

// Runtime is one real-time execution of a scenario Config. Build with
// New, execute once with Run. Unlike sim.Simulation it is not reusable:
// a run's goroutines, timers, and channels are built fresh inside Run so
// the whole lifecycle fits in one synctest bubble.
type Runtime struct {
	cfg    sim.Config
	hosts  []*host
	router *Router
	start  time.Time
	done   chan struct{}
	events atomic.Uint64

	// injector holds every node's crash and rate-excursion chain; host i
	// steps only node i's, on its own goroutine.
	injector fault.Injector

	// churn's chains (one per volatile candidate, the star's rotations,
	// its removals) touch disjoint state, each stepped in order.
	churn sim.ChurnState
	// launched is set before any churn timer or node goroutine starts;
	// until then nothing drains the queues, so relay runs callbacks inline.
	launched bool

	// Sampler-owned observation state.
	vals  []float64
	edges []dyngraph.Edge
	fold  sim.Fold
}

// Supports reports whether the real-time runtime can execute cfg,
// returning a descriptive error for the features only the DES harness
// provides. Shards and Workers are execution, so a sharded config runs.
func Supports(cfg sim.Config) error {
	switch {
	case cfg.CheckGradient:
		return fmt.Errorf("rt: CheckGradient requires the DES harness's consistent-cut distance tracking")
	case cfg.LowerBoundEps != 0:
		return fmt.Errorf("rt: LowerBoundEps selects the DES harness's Theorem 4.1 adversary; the real-time runtime draws uniform delays")
	}
	return nil
}

// New validates cfg and prepares a runtime. The config semantics are
// sim's: same defaulting, same analytic bounds, same fault plan.
func New(cfg sim.Config) (*Runtime, error) {
	// Supports first: a DES-only feature is named as such even when the
	// config is also invalid.
	if err := Supports(cfg); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Runtime{cfg: cfg.WithDefaults()}, nil
}

// wire builds the router over the initial topology, with its delay law
// seeded from root, and one host per node — queue, drifting clock, gcs
// node — and returns that topology. It is the backbone, present from
// time 0 like the DES graph's initial edge set; the rotating star
// ignores it and adds its first star through churn. r.start and r.done
// must be set. Nothing runs yet: no goroutine, no timer.
func (r *Runtime) wire(root *des.Rand) (backbone []dyngraph.Edge) {
	cfg := r.cfg
	if cfg.Churn.Kind != sim.ChurnRotatingStar {
		backbone = cfg.Topology.Edges(cfg.N)
	}
	r.router = &Router{r: r, g: dyngraph.NewDynamic(cfg.N, backbone)}
	r.router.delays.Wire(cfg.MinDelay, cfg.MaxDelay, cfg.N, root)
	r.hosts = make([]*host, cfg.N)
	for i := range r.hosts {
		h := &host{r: r, id: i, events: make(chan func(), 128)}
		h.clk = clock.NewOn(h, wallRes, 1)
		h.node = gcs.New(i, h.clk, cfg.Node, r.router, r.router)
		r.hosts[i] = h
	}
	return backbone
}

// simNow is the simulated time: wall seconds since the run started.
func (r *Runtime) simNow() float64 { return time.Since(r.start).Seconds() } //gcslint:allow nondeterminism — rt's simulated time IS wall time by definition

// closed reports whether the run is shutting down; detached goroutines
// (churn) check it so late timer firings cannot mutate a finished run.
func (r *Runtime) closed() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// relay tells both endpoints of e that it was added (discover(add): the
// immediate beacon exchange the DES harness's discovery subscriber
// performs) or removed (discover(remove)). Between the router write and
// the host draining its queue a node still counts a departed neighbor
// toward its fast-mode rule: that window is the model's bounded discover
// delay (the DES harness runs with none).
func (r *Runtime) relay(e dyngraph.Edge, added bool) {
	for _, p := range [2][2]int{{e.U, e.V}, {e.V, e.U}} {
		h, peer := r.hosts[p[0]], p[1]
		fn := func() { h.node.OnEdgeRemoved(peer) }
		if added {
			fn = func() { h.node.OnEdgeAdded(peer) }
		}
		if r.launched {
			h.enqueue(fn)
		} else {
			fn()
		}
	}
}

// churnAfter arms a wall timer for churn event ev. The step runs on the
// timer's goroutine and arms the steps that follow it, so each chain's
// steps stay in order; one firing after shutdown does nothing.
func (r *Runtime) churnAfter(ev sim.ChurnEvent) {
	if ev.After < 0 {
		return
	}
	time.AfterFunc(durOf(ev.After), func() {
		if r.closed() {
			return
		}
		first, second := r.churn.Step(ev.Arg, r.simNow(), r.router)
		r.churnAfter(first)
		r.churnAfter(second)
	})
}

// sample takes one skew observation: snapshot the edge set (router lock
// only), then read each node under its host lock. Under synctest the
// sampler only wakes once every event at earlier instants has been fully
// processed and every goroutine is durably blocked, so the observation
// is a consistent cut; in real time it is a best-effort cut, which the
// non-bubble smoke tests account for with slack.
func (r *Runtime) sample() {
	r.edges = r.edges[:0]
	r.router.mu.RLock()
	r.router.g.RangeCurrentEdges(func(e dyngraph.Edge) { r.edges = append(r.edges, e) })
	r.router.mu.RUnlock()
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, h := range r.hosts {
		h.mu.Lock()
		if h.node.Down() {
			// NaN-poison crashed nodes, like the DES sampler: NaN fails every
			// comparison below, so down nodes drop out of both skew folds.
			r.vals[i] = math.NaN()
		} else {
			l := h.node.Logical()
			r.vals[i] = l
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		h.mu.Unlock()
	}
	for _, e := range r.edges {
		r.fold.Adjacent(r.vals[e.U], r.vals[e.V])
	}
	r.fold.Sample(r.simNow(), lo, hi)
}

// sleepUntil blocks until simulated time t (wall-clock sleep; fake-clock
// advance inside a synctest bubble).
func (r *Runtime) sleepUntil(t float64) {
	if d := t - r.simNow(); d > 0 {
		time.Sleep(durOf(d))
	}
}

func stopTimer(t *time.Timer) {
	if t != nil {
		t.Stop()
	}
}

// Run executes the scenario to its horizon and returns the report in
// the shared sim.SkewReport shape. Everything — hosts, timers, channels,
// goroutines — is built inside Run, so a synctest test simply calls Run
// inside the bubble; Run returns only after every node goroutine has
// exited. Call once per Runtime.
func (r *Runtime) Run() sim.SkewReport {
	cfg := r.cfg
	n := cfg.N
	r.start = time.Now() //gcslint:allow nondeterminism — run epoch; all rt timestamps are offsets from it
	r.done = make(chan struct{})
	r.vals = make([]float64, n)

	// PRNG streams, forked with the same subsystem ids as the DES harness
	// (structural mirroring; cross-harness comparisons are bound-based,
	// not bit-based, since the executions schedule differently).
	root := des.NewRand(cfg.Seed)
	var driveRand, phaseRand, faultRoot des.Rand
	root.ForkInto(0xd81fe, &driveRand)
	root.ForkInto(0x9a5e, &phaseRand)

	backbone := r.wire(root)
	for i, h := range r.hosts {
		h.driver.Start(i, &driveRand)
		h.stepDriver()
	}

	// Churn, in the DES harness's arm order: after the drivers, before the
	// fault plan, so discovery over the first star draws no fault verdict.
	first := r.churn.Start(&r.cfg, root, backbone, r.router)
	r.launched = true
	for _, ev := range first {
		r.churnAfter(ev)
	}

	// Fault plan, from the same fault root as the DES harness: message
	// verdicts per send in the router, the node-level chains armed with
	// the injector's first onsets.
	spec := cfg.Faults
	if spec.Enabled() {
		root.ForkInto(0xfa07, &faultRoot)
		if spec.MessageFaults() {
			m := fault.NewMessages()
			m.Wire(spec, cfg.MaxDelay, n, &faultRoot)
			r.router.faults = m
		}
		r.injector.Wire(spec, n, cfg.Rho, &faultRoot)
		for i, h := range r.hosts {
			h.arm(&h.crashT, r.injector.CrashStart(i), h.stepCrash)
			h.arm(&h.rateT, r.injector.RateStart(i), h.stepRate)
		}
	}
	bound := cfg.GlobalSkewBound()
	r.fold.Reset(spec.Enabled(), bound)

	// Start every node at its drawn beacon phase, then launch the node
	// goroutines. Setup so far ran single-threaded at t=0.
	for _, h := range r.hosts {
		h.node.Start(phaseRand.Range(0, cfg.Node.BeaconEvery))
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for _, h := range r.hosts {
		go h.loop(&wg)
	}

	// Sampler: t=0, then phase-offset periodic instants, then the horizon.
	r.sample()
	for k := 0; ; k++ {
		next := (float64(k) + samplePhase) * cfg.SampleEvery
		if next >= cfg.Horizon {
			break
		}
		r.sleepUntil(next)
		r.sample()
	}
	r.sleepUntil(cfg.Horizon)
	r.sample()

	// Quiesce before shutdown: periodic drivers and churn land on exact
	// integer instants, so a wave of events can fire at precisely the
	// horizon and race the done signal through the loop select (which
	// picks pseudorandomly between ready cases, bubble or not), making
	// EventsExecuted schedule-dependent. A grace sleep lets that wave
	// drain first — under synctest it is an exact barrier, since the fake
	// clock only advances once every goroutine is durably blocked again.
	time.Sleep(time.Millisecond)

	// Shutdown: release the node goroutines, then silence every
	// long-lived timer chain. In-flight delivery callbacks only ever
	// enqueue, and enqueue gives up once done is closed; churn steps
	// check closed.
	close(r.done)
	wg.Wait()
	for _, h := range r.hosts {
		stopTimer(h.clockT)
		stopTimer(h.driverT)
		stopTimer(h.crashT)
		stopTimer(h.rateT)
	}

	rep := &r.fold.Report
	rep.Bound = bound
	rep.Transport = r.router.Stats()
	rep.EventsExecuted = r.events.Load()
	r.router.mu.RLock() // a churn step that began before close may still be writing
	rep.EdgeAdds, rep.EdgeRemoves = r.router.g.Stats()
	r.router.mu.RUnlock()
	r.fold.ResetTotals()
	var fs fault.Stats
	for _, h := range r.hosts {
		mn, mx := h.clk.RateBoundsSeen()
		r.fold.AddNode(mn, mx, h.node.Snap())
		fs.Merge(h.fstats)
	}
	if spec.Enabled() {
		r.fold.SetFaults(fs)
	}
	return *rep
}

// Run validates cfg, then wires and executes it in one call.
func Run(cfg sim.Config) (sim.SkewReport, error) {
	r, err := New(cfg)
	if err != nil {
		return sim.SkewReport{}, err
	}
	return r.Run(), nil
}
