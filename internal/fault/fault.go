// Package fault is the deterministic fault-injection subsystem: a
// declarative plan (Spec, carried as sim.Config.Faults) that breaks the
// paper's clean failure model in four controlled ways —
//
//   - probabilistic message loss and duplication at the transport layer,
//   - delay spikes exceeding the nominal MaxDelay up to a capped
//     multiplier,
//   - node crash-stop / crash-recover schedules (recovery loses volatile
//     state and rejoins through the existing discovery beacon), and
//   - hardware-rate excursions outside [1-rho, 1+rho]
//
// — while keeping every report a pure function of the scenario Config.
// Faults are physics, exactly like delay floors: every draw comes from
// per-node streams forked off a dedicated root (des.Rand.ForkInto never
// advances the parent), consumed in an order that only depends on the
// node's own event sequence. A faulted run is therefore bit-identical
// across reruns and across shard and worker counts, and a zero-valued
// Spec leaves the unfaulted execution
// untouched down to the last PRNG draw.
//
// Injection stops at Spec.Until (default half the horizon), leaving the
// rest of the run to re-converge; the harness measures the time from
// the last injected disturbance until the global skew re-enters the
// analytic bound (SkewReport.ReconvergenceTime), which is what the
// chaos CI gate checks.
package fault

import (
	"fmt"
	"math"

	"gcs/internal/des"
)

// Spec declares one fault plan. The zero value disables injection
// entirely (Enabled reports false) and is guaranteed not to perturb an
// execution. All probabilities are per message; all "-Every" fields are
// means of exponential inter-arrival draws per node.
type Spec struct {
	// Drop is the probability a sent message is silently lost in
	// transit (beyond the model's edge-removal losses).
	Drop float64
	// Dup is the probability a sent message is delivered twice, the
	// copy with its own independently drawn delay.
	Dup float64
	// DelaySpike is the probability a message's delay is drawn from
	// (MaxDelay, SpikeFactor*MaxDelay] instead of the nominal law —
	// a violation of the paper's delay bound.
	DelaySpike float64
	// SpikeFactor caps the spiked delay at SpikeFactor*MaxDelay. Unset
	// (0) defaults to 4; values must exceed 1.
	SpikeFactor float64

	// CrashEvery, when positive, crashes each node on an exponential
	// schedule with this mean. A crashed node stops beaconing and
	// ignores traffic.
	CrashEvery float64
	// CrashDowntime is the mean exponential downtime before a crashed
	// node recovers (loses volatile state, restarts its logical clock at
	// the hardware reading, rejoins via an immediate beacon). Unset
	// defaults to 1. Ignored with CrashStop.
	CrashDowntime float64
	// CrashStop makes crashes permanent: crashed nodes never recover
	// and stay excluded from skew sampling for the rest of the run.
	CrashStop bool

	// RateExcursionEvery, when positive, starts per-node hardware-rate
	// excursions on an exponential schedule with this mean: the start
	// sets a rate outside [1-rho, 1+rho] by a factor drawn in
	// [1, RateExcursionFactor). The node's rate driver is not paused: its
	// next step sets its own in-band rate, so the rate stays out of band
	// only until that step or the excursion's end, whichever comes first.
	RateExcursionEvery float64
	// RateExcursionFactor scales the excursion: the rate is set to
	// 1 ± m*rho with m drawn in [1, RateExcursionFactor). Unset
	// defaults to 3; values must exceed 1.
	RateExcursionFactor float64
	// RateExcursionFor is the mean exponential duration of one
	// excursion. Its end sets the rate to 1, which holds until the
	// driver's next step. Unset defaults to 0.5.
	RateExcursionFor float64

	// Until stops injecting new faults after this simulated time, so the
	// tail of the run measures re-convergence. Unset defaults to half
	// the horizon. (Recoveries and excursion ends still execute after
	// Until — they conclude disturbances, they do not start them.)
	Until float64
}

// Enabled reports whether the plan injects anything at all.
func (s Spec) Enabled() bool { return s != Spec{} }

// MessageFaults reports whether the plan touches the message path
// (drop, duplication, or delay spikes); every send then draws its own
// verdict.
func (s Spec) MessageFaults() bool { return s.Drop > 0 || s.Dup > 0 || s.DelaySpike > 0 }

// WithDefaults fills unset fields, given the scenario horizon. It is
// idempotent and leaves a disabled Spec untouched.
func (s Spec) WithDefaults(horizon float64) Spec {
	if !s.Enabled() {
		return s
	}
	if s.SpikeFactor == 0 {
		s.SpikeFactor = 4
	}
	if s.CrashEvery > 0 && s.CrashDowntime == 0 && !s.CrashStop {
		s.CrashDowntime = 1
	}
	if s.RateExcursionEvery > 0 {
		if s.RateExcursionFactor == 0 {
			s.RateExcursionFactor = 3
		}
		if s.RateExcursionFor == 0 {
			s.RateExcursionFor = 0.5
		}
	}
	if s.Until == 0 {
		s.Until = horizon / 2
	}
	return s
}

// Validate checks a defaulted Spec against the scenario horizon,
// returning a descriptive error for the harness's Config.Validate path.
func (s Spec) Validate(horizon float64) error {
	if !s.Enabled() {
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"SpikeFactor", s.SpikeFactor}, {"CrashEvery", s.CrashEvery}, {"CrashDowntime", s.CrashDowntime},
		{"RateExcursionEvery", s.RateExcursionEvery}, {"RateExcursionFactor", s.RateExcursionFactor},
		{"RateExcursionFor", s.RateExcursionFor}, {"Until", s.Until}} {
		if math.IsNaN(p.v) {
			return fmt.Errorf("fault: %s is NaN", p.name)
		}
	}
	for _, p := range []struct {
		name string
		v    float64
	}{{"Drop", s.Drop}, {"Dup", s.Dup}, {"DelaySpike", s.DelaySpike}} {
		if p.v < 0 || p.v > 1 || math.IsNaN(p.v) {
			return fmt.Errorf("fault: %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	if s.DelaySpike > 0 && !(s.SpikeFactor > 1) {
		return fmt.Errorf("fault: SpikeFactor %v must exceed 1", s.SpikeFactor)
	}
	if s.CrashEvery < 0 {
		return fmt.Errorf("fault: CrashEvery %v must be nonnegative", s.CrashEvery)
	}
	if s.CrashEvery > 0 && !s.CrashStop && s.CrashDowntime <= 0 {
		return fmt.Errorf("fault: CrashDowntime %v must be positive", s.CrashDowntime)
	}
	if s.RateExcursionEvery < 0 {
		return fmt.Errorf("fault: RateExcursionEvery %v must be nonnegative", s.RateExcursionEvery)
	}
	if s.RateExcursionEvery > 0 {
		if !(s.RateExcursionFactor > 1) {
			return fmt.Errorf("fault: RateExcursionFactor %v must exceed 1", s.RateExcursionFactor)
		}
		if s.RateExcursionFor <= 0 {
			return fmt.Errorf("fault: RateExcursionFor %v must be positive", s.RateExcursionFor)
		}
	}
	if !(s.Until > 0) || s.Until > horizon {
		return fmt.Errorf("fault: Until %v must lie in (0, horizon %v]", s.Until, horizon)
	}
	return nil
}

// Stats counts injected faults over one execution. Counters are split
// by kind; LastFaultT is the time of the last disturbance (including
// recoveries and excursion ends, which perturb clocks when they fire),
// the reference point of the re-convergence metric.
type Stats struct {
	Drops          uint64
	Dups           uint64
	DelaySpikes    uint64
	Crashes        uint64
	Recoveries     uint64
	RateExcursions uint64
	LastFaultT     float64
}

// Total returns the number of injected disturbances.
func (st *Stats) Total() uint64 {
	return st.Drops + st.Dups + st.DelaySpikes + st.Crashes + st.Recoveries + st.RateExcursions
}

// Merge folds other into st: counters add, LastFaultT takes the max —
// an order-independent fold, so merging per-shard stats in any fixed
// order yields the same result.
func (st *Stats) Merge(other Stats) {
	st.Drops += other.Drops
	st.Dups += other.Dups
	st.DelaySpikes += other.DelaySpikes
	st.Crashes += other.Crashes
	st.Recoveries += other.Recoveries
	st.RateExcursions += other.RateExcursions
	if other.LastFaultT > st.LastFaultT {
		st.LastFaultT = other.LastFaultT
	}
}

func (st *Stats) note(t float64) {
	if t > st.LastFaultT {
		st.LastFaultT = t
	}
}

// Verdict is one message's fault outcome: dropped, duplicated, and/or
// assigned a spiked delay (0 means "use the nominal delay law"). Drop
// excludes the others.
type Verdict struct {
	Drop  bool
	Dup   bool
	Delay float64
}

// Messages draws per-message fault verdicts from per-sender streams:
// sender i's verdicts depend only on i's own send sequence, never on
// how other nodes' events interleave, which is what keeps faulted
// parallel runs worker-invariant. A Messages is reusable: Wire reseeds
// it in place without allocating once the stream table has grown.
type Messages struct {
	drop, dup, spike float64
	spikeLo, spikeHi float64
	until            float64
	rands            []des.Rand
}

// NewMessages returns an empty message-fault plan; Wire arms it.
func NewMessages() *Messages { return &Messages{} }

// Wire reseeds the plan for one run of n senders from a defaulted spec.
// root is the run's fault root; forking never advances it.
func (m *Messages) Wire(spec Spec, maxDelay float64, n int, root *des.Rand) {
	m.drop, m.dup, m.spike = spec.Drop, spec.Dup, spec.DelaySpike
	m.spikeLo, m.spikeHi = maxDelay, spec.SpikeFactor*maxDelay
	m.until = spec.Until
	m.rands = root.ForkTable(1, n, m.rands)
}

// Draw returns the verdict for one message sent by `from` at time
// `now`, accumulating counters into st (the caller's, so serial and
// per-shard accounting share one code path). After the injection
// window it returns the zero verdict without consuming any draws.
func (m *Messages) Draw(from int, now float64, st *Stats) Verdict {
	if now > m.until {
		return Verdict{}
	}
	r := &m.rands[from]
	var v Verdict
	if m.drop > 0 && r.Bool(m.drop) {
		v.Drop = true
		st.Drops++
		st.note(now)
		return v
	}
	if m.dup > 0 && r.Bool(m.dup) {
		v.Dup = true
		st.Dups++
		st.note(now)
	}
	if m.spike > 0 && r.Bool(m.spike) {
		// 1 - Float64() is in (0, 1], so the delay is in (lo, hi] — always
		// beyond the nominal MaxDelay.
		v.Delay = m.spikeLo + (m.spikeHi-m.spikeLo)*(1-r.Float64())
		st.DelaySpikes++
		st.note(now)
	}
	return v
}

// Injector holds the node-level fault schedules — crash-stop /
// crash-recover and hardware-rate excursions — as two self-rescheduling
// chains per node. Each chain is a step function: it advances the
// chain's state, counts into the caller's Stats, and returns the effect
// the harness must apply now together with the delay to the chain's next
// step (negative when the chain has ended). How a delay becomes a future
// call is the harness's business — a DES event on the global engine, a
// re-armed wall timer in the real-time runtime — so the fault physics
// exists once. Each node's chains draw from their own forked streams and
// touch only that node's state, so schedules are independent of each
// other and of everything else in the run, and distinct nodes may be
// stepped concurrently. An Injector is reusable: the zero value is ready,
// and Wire reseeds it in place.
type Injector struct {
	spec Spec
	rho  float64
	// down[i]/excursed[i] are node i's chain phases: crashed, and inside
	// a rate excursion.
	down     []bool
	excursed []bool

	crashRands []des.Rand
	rateRands  []des.Rand
}

// Wire reseeds the injector for one run over n nodes from a defaulted
// spec. rho scales rate excursions; root is the run's fault root.
func (inj *Injector) Wire(spec Spec, n int, rho float64, root *des.Rand) {
	inj.spec = spec
	inj.rho = rho
	if cap(inj.down) < n {
		inj.down = make([]bool, n)
		inj.excursed = make([]bool, n)
	} else {
		inj.down = inj.down[:n]
		inj.excursed = inj.excursed[:n]
		clear(inj.down)
		clear(inj.excursed)
	}
	inj.crashRands = root.ForkTable(2, n, inj.crashRands)
	inj.rateRands = root.ForkTable(3, n, inj.rateRands)
}

// onset draws the delay from now to a chain's next onset, or a negative
// delay when that onset would pass Until: only fresh onsets are clamped
// to the injection window, so this is where a chain ends.
func (inj *Injector) onset(r *des.Rand, mean, now float64) float64 {
	d := r.Exp(mean)
	if now+d > inj.spec.Until {
		return -1
	}
	return d
}

// CrashStart returns the delay from time 0 to node i's first crash,
// negative when the plan has no crashes or the first onset passes Until.
func (inj *Injector) CrashStart(i int) float64 {
	if inj.spec.CrashEvery <= 0 {
		return -1
	}
	return inj.onset(&inj.crashRands[i], inj.spec.CrashEvery, 0)
}

// CrashStep advances node i's crash/recover chain at time now. down
// reports the node's new state — the harness crashes the node when true
// and recovers it when false.
func (inj *Injector) CrashStep(i int, now float64, st *Stats) (down bool, next float64) {
	st.note(now)
	if !inj.down[i] {
		inj.down[i] = true
		st.Crashes++
		if inj.spec.CrashStop {
			return true, -1
		}
		// The recovery concludes this crash, so it runs even past Until.
		return true, inj.crashRands[i].Exp(inj.spec.CrashDowntime)
	}
	// Rejoining with a stale clock is itself a disturbance: re-convergence
	// is measured from the rejoin, not from the crash that caused it.
	inj.down[i] = false
	st.Recoveries++
	return false, inj.onset(&inj.crashRands[i], inj.spec.CrashEvery, now)
}

// RateStart returns the delay from time 0 to node i's first rate
// excursion, negative when the plan has none or the first onset passes
// Until.
func (inj *Injector) RateStart(i int) float64 {
	if inj.spec.RateExcursionEvery <= 0 {
		return -1
	}
	return inj.onset(&inj.rateRands[i], inj.spec.RateExcursionEvery, 0)
}

// RateStep advances node i's excursion chain at time now and returns the
// hardware rate the harness must force: an out-of-band rate at an
// excursion's start, the nominal 1 at its end.
func (inj *Injector) RateStep(i int, now float64, st *Stats) (rate, next float64) {
	st.note(now)
	r := &inj.rateRands[i]
	if inj.excursed[i] {
		// Restoring the nominal rate perturbs the clock one last time; the
		// scenario's driver reasserts its own in-band rate at its next step.
		inj.excursed[i] = false
		return 1, inj.onset(r, inj.spec.RateExcursionEvery, now)
	}
	inj.excursed[i] = true
	st.RateExcursions++
	// 1 - Float64() is in (0, 1], so mag is in (1, Factor]: the rate is
	// strictly outside the [1-rho, 1+rho] drift band the paper assumes.
	mag := 1 + (inj.spec.RateExcursionFactor-1)*(1-r.Float64())
	rate = 1 + mag*inj.rho
	if r.Bool(0.5) {
		rate = 1 - mag*inj.rho
		if rate < 0.05 {
			rate = 0.05 // hardware clocks must keep running forward
		}
	}
	return rate, r.Exp(inj.spec.RateExcursionFor)
}
