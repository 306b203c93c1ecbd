package fault

import (
	"math"
	"reflect"
	"testing"

	"gcs/internal/des"
)

func TestSpecZeroValueDisabled(t *testing.T) {
	var s Spec
	if s.Enabled() || s.MessageFaults() {
		t.Fatal("zero Spec must be disabled")
	}
	if got := s.WithDefaults(10); got != s {
		t.Fatalf("WithDefaults perturbed a disabled Spec: %+v", got)
	}
	if err := s.Validate(10); err != nil {
		t.Fatalf("zero Spec must validate: %v", err)
	}
}

func TestSpecWithDefaults(t *testing.T) {
	s := Spec{Drop: 0.1, CrashEvery: 2, RateExcursionEvery: 3}.WithDefaults(10)
	if s.SpikeFactor != 4 || s.CrashDowntime != 1 ||
		s.RateExcursionFactor != 3 || s.RateExcursionFor != 0.5 || s.Until != 5 {
		t.Fatalf("defaults not filled: %+v", s)
	}
	if again := s.WithDefaults(10); again != s {
		t.Fatalf("WithDefaults not idempotent: %+v vs %+v", again, s)
	}
	if err := s.Validate(10); err != nil {
		t.Fatalf("defaulted Spec must validate: %v", err)
	}
	// Crash-stop plans need no downtime.
	cs := Spec{CrashEvery: 2, CrashStop: true}.WithDefaults(10)
	if cs.CrashDowntime != 0 {
		t.Fatalf("crash-stop got a downtime default: %+v", cs)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	for name, s := range map[string]Spec{
		"drop>1":        {Drop: 1.5},
		"dup<0":         {Dup: -0.1},
		"spikeNaN":      {DelaySpike: math.NaN()},
		"spikeFactor<1": {DelaySpike: 0.1, SpikeFactor: 0.5},
		"crashEvery<0":  {CrashEvery: -1},
		"noDowntime":    {CrashEvery: 1, CrashDowntime: -2},
		"rateEvery<0":   {RateExcursionEvery: -1},
		"rateFactor<1":  {RateExcursionEvery: 1, RateExcursionFactor: 1, RateExcursionFor: 1},
		"rateForZero":   {RateExcursionEvery: 1, RateExcursionFactor: 2, RateExcursionFor: -1},
		"untilPastEnd":  {Drop: 0.1, SpikeFactor: 4, Until: 20},
		"untilNegative": {Drop: 0.1, SpikeFactor: 4, Until: -1},
		"crashEveryNaN": {CrashEvery: math.NaN(), Until: 5},
		"downtimeNaN":   {CrashEvery: 1, CrashDowntime: math.NaN(), Until: 5},
		"rateEveryNaN":  {RateExcursionEvery: math.NaN(), Until: 5},
		"rateForNaN":    {RateExcursionEvery: 1, RateExcursionFactor: 2, RateExcursionFor: math.NaN(), Until: 5},
	} {
		if err := s.Validate(10); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, s)
		}
	}
}

// drawAll replays n verdicts for one sender on a freshly wired plan.
func drawAll(spec Spec, sender, n int, seed uint64) ([]Verdict, Stats) {
	root := des.NewRand(seed)
	m := NewMessages()
	m.Wire(spec, 0.01, 4, root)
	var st Stats
	out := make([]Verdict, n)
	for k := range out {
		out[k] = m.Draw(sender, 0.1*float64(k), &st)
	}
	return out, st
}

func TestMessagesDeterministicAndCounted(t *testing.T) {
	spec := Spec{Drop: 0.3, Dup: 0.3, DelaySpike: 0.3}.WithDefaults(100)
	a, sa := drawAll(spec, 0, 200, 42)
	b, sb := drawAll(spec, 0, 200, 42)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed produced different verdict sequences")
	}
	if sa.Drops == 0 || sa.Dups == 0 || sa.DelaySpikes == 0 {
		t.Fatalf("aggressive plan injected nothing: %+v", sa)
	}
	if sa.Total() != sa.Drops+sa.Dups+sa.DelaySpikes || sa.LastFaultT <= 0 {
		t.Fatalf("inconsistent stats: %+v", sa)
	}
	c, _ := drawAll(spec, 0, 200, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical verdicts")
	}
	// Spiked delays must always exceed the nominal bound, never its cap.
	for _, v := range a {
		if v.Delay != 0 && (v.Delay <= 0.01 || v.Delay > 4*0.01) {
			t.Fatalf("spiked delay %v outside (MaxDelay, 4*MaxDelay]", v.Delay)
		}
		if v.Drop && (v.Dup || v.Delay != 0) {
			t.Fatalf("drop verdict combined with others: %+v", v)
		}
	}
}

// TestMessagesSenderIndependence pins the worker-invariance mechanism:
// sender i's verdict stream depends only on i's own send count, not on
// how other senders' draws interleave with it.
func TestMessagesSenderIndependence(t *testing.T) {
	spec := Spec{Drop: 0.5}.WithDefaults(100)
	solo, _ := drawAll(spec, 1, 50, 7)

	root := des.NewRand(7)
	m := NewMessages()
	m.Wire(spec, 0.01, 4, root)
	var st Stats
	interleaved := make([]Verdict, 50)
	for k := range interleaved {
		m.Draw(0, 0.1*float64(k), &st) // noise from another sender
		interleaved[k] = m.Draw(1, 0.1*float64(k), &st)
		m.Draw(2, 0.1*float64(k), &st)
	}
	if !reflect.DeepEqual(solo, interleaved) {
		t.Fatal("sender 1's verdicts changed when other senders drew in between")
	}
}

func TestMessagesRespectUntil(t *testing.T) {
	spec := Spec{Drop: 1, Until: 1}.WithDefaults(100)
	root := des.NewRand(1)
	m := NewMessages()
	m.Wire(spec, 0.01, 2, root)
	var st Stats
	if v := m.Draw(0, 0.5, &st); !v.Drop {
		t.Fatal("certain drop not applied inside the window")
	}
	if v := m.Draw(0, 1.5, &st); v != (Verdict{}) {
		t.Fatalf("verdict %+v injected after Until", v)
	}
	if st.Drops != 1 {
		t.Fatalf("Drops = %d, want 1", st.Drops)
	}
}

func TestStatsMergeOrderIndependent(t *testing.T) {
	a := Stats{Drops: 1, Crashes: 2, LastFaultT: 3}
	b := Stats{Dups: 4, Recoveries: 5, LastFaultT: 7}
	c := Stats{DelaySpikes: 6, RateExcursions: 8, LastFaultT: 5}
	ab := a
	ab.Merge(b)
	ab.Merge(c)
	cb := c
	cb.Merge(b)
	cb.Merge(a)
	if ab != cb {
		t.Fatalf("merge order changed the result: %+v vs %+v", ab, cb)
	}
	if ab.LastFaultT != 7 || ab.Total() != 26 {
		t.Fatalf("bad fold: %+v", ab)
	}
}

// injEvent is one observed injector callback.
type injEvent struct {
	kind string
	node int
	t    float64
	rate float64
}

// injHarness drives an Injector's step functions on a bare engine the
// way a DES harness does: apply the returned effect (here: record it),
// then schedule the next step after the returned delay.
type injHarness struct {
	en     *des.Engine
	inj    *Injector
	stats  Stats
	events []injEvent
}

func (h *injHarness) after(next float64, fn des.ArgHandler, i int) {
	if next >= 0 {
		h.en.ScheduleAfterArg(next, "fault", fn, uint64(i))
	}
}

func (h *injHarness) crashStep(arg uint64) {
	down, next := h.inj.CrashStep(int(arg), h.en.Now(), &h.stats)
	kind := "recover"
	if down {
		kind = "crash"
	}
	h.events = append(h.events, injEvent{kind, int(arg), h.en.Now(), 0})
	h.after(next, h.crashStep, int(arg))
}

func (h *injHarness) rateStep(arg uint64) {
	rate, next := h.inj.RateStep(int(arg), h.en.Now(), &h.stats)
	h.events = append(h.events, injEvent{"rate", int(arg), h.en.Now(), rate})
	h.after(next, h.rateStep, int(arg))
}

// run wires the injector for one plan and executes it to the horizon.
func (h *injHarness) run(spec Spec, n int, horizon float64, seed uint64) {
	h.en.Reset()
	h.stats, h.events = Stats{}, nil
	h.inj.Wire(spec, n, 0.05, des.NewRand(seed))
	for i := 0; i < n; i++ {
		h.after(h.inj.CrashStart(i), h.crashStep, i)
	}
	for i := 0; i < n; i++ {
		h.after(h.inj.RateStart(i), h.rateStep, i)
	}
	h.en.Run(horizon)
}

// runInjector executes a plan on a fresh injector and engine.
func runInjector(spec Spec, n int, horizon float64, seed uint64) ([]injEvent, Stats, []bool) {
	h := &injHarness{en: des.NewEngine(), inj: new(Injector)}
	h.run(spec, n, horizon, seed)
	down := make([]bool, n)
	copy(down, h.inj.down)
	return h.events, h.stats, down
}

func TestInjectorDeterministicSchedules(t *testing.T) {
	spec := Spec{CrashEvery: 2, CrashDowntime: 0.5, RateExcursionEvery: 2,
		RateExcursionFactor: 3, RateExcursionFor: 0.5, Until: 10}.WithDefaults(20)
	a, sa, _ := runInjector(spec, 8, 20, 11)
	b, sb, _ := runInjector(spec, 8, 20, 11)
	if !reflect.DeepEqual(a, b) || sa != sb {
		t.Fatal("same seed produced different injection schedules")
	}
	if sa.Crashes == 0 || sa.Recoveries == 0 || sa.RateExcursions == 0 {
		t.Fatalf("plan injected nothing: %+v", sa)
	}
	if sa.Recoveries > sa.Crashes {
		t.Fatalf("more recoveries than crashes: %+v", sa)
	}
	for _, e := range a {
		// Onsets obey the injection window; recoveries and excursion ends
		// (rate=1) may conclude past it.
		if (e.kind == "crash" || (e.kind == "rate" && e.rate != 1)) && e.t > spec.Until {
			t.Fatalf("onset after Until: %+v", e)
		}
		// Excursions must leave the [1-rho, 1+rho] band (rho = 0.05).
		if e.kind == "rate" && e.rate != 1 && e.rate > 1-0.05 && e.rate < 1+0.05 {
			t.Fatalf("excursion rate %v inside the drift band", e.rate)
		}
	}
}

func TestInjectorCrashStopNeverRecovers(t *testing.T) {
	spec := Spec{CrashEvery: 1, CrashStop: true, Until: 10}.WithDefaults(20)
	events, st, down := runInjector(spec, 6, 20, 3)
	if st.Crashes == 0 {
		t.Fatal("no crashes with mean 1 over a 10s window")
	}
	if st.Recoveries != 0 {
		t.Fatalf("crash-stop recovered %d times", st.Recoveries)
	}
	crashed := 0
	for _, e := range events {
		if e.kind == "recover" {
			t.Fatalf("recover event under crash-stop: %+v", e)
		}
	}
	for _, d := range down {
		if d {
			crashed++
		}
	}
	if uint64(crashed) != st.Crashes {
		t.Fatalf("down mask shows %d crashed, stats say %d", crashed, st.Crashes)
	}
}

func TestInjectorRewireResets(t *testing.T) {
	spec := Spec{CrashEvery: 1, CrashStop: true, Until: 10}.WithDefaults(20)
	_, first, _ := runInjector(spec, 6, 20, 3)
	// Reusing one injector across runs (the arena pattern) must reproduce
	// a fresh injector bit for bit, including the cleared down mask.
	h := &injHarness{en: des.NewEngine(), inj: new(Injector)}
	for run := 0; run < 2; run++ {
		h.run(spec, 6, 20, 3)
		if h.stats != first {
			t.Fatalf("run %d diverged: %+v vs %+v", run, h.stats, first)
		}
	}
}

// TestInjectorStepTable checks the two chains as bare step functions,
// with no engine: replaying node i's forked stream by hand must predict
// every (effect, delay) pair, and a chain must end exactly when its next
// onset passes Until — never earlier, never later.
func TestInjectorStepTable(t *testing.T) {
	const n, node, rho, seed = 4, 2, 0.05, 17
	spec := Spec{CrashEvery: 1, CrashDowntime: 0.5, RateExcursionEvery: 1,
		RateExcursionFactor: 3, RateExcursionFor: 0.5, Until: 6}.WithDefaults(20)
	inj := new(Injector)
	inj.Wire(spec, n, rho, des.NewRand(seed))

	t.Run("crash", func(t *testing.T) {
		want := forkPath(des.NewRand(seed), 2, node)
		var st Stats
		now := want.Exp(spec.CrashEvery)
		if got := inj.CrashStart(node); got != now {
			t.Fatalf("first onset %v, want %v", got, now)
		}
		for step := 0; ; step++ {
			down, next := inj.CrashStep(node, now, &st)
			if wantDown := step%2 == 0; down != wantDown || inj.down[node] != wantDown {
				t.Fatalf("step %d: down=%v mask=%v, want %v", step, down, inj.down[node], wantDown)
			}
			mean := spec.CrashEvery
			if down {
				mean = spec.CrashDowntime
			}
			d := want.Exp(mean)
			if !down && now+d > spec.Until {
				if next >= 0 {
					t.Fatalf("step %d: onset at %v passes Until %v but the chain continued", step, now+d, spec.Until)
				}
				break
			}
			if next != d {
				t.Fatalf("step %d: next %v, want %v", step, next, d)
			}
			now += next
		}
		if st.Crashes == 0 || st.Crashes != st.Recoveries || st.LastFaultT != now {
			t.Fatalf("bad counters at chain end (t=%v): %+v", now, st)
		}
	})

	t.Run("rate", func(t *testing.T) {
		want := forkPath(des.NewRand(seed), 3, node)
		var st Stats
		now := want.Exp(spec.RateExcursionEvery)
		if got := inj.RateStart(node); got != now {
			t.Fatalf("first onset %v, want %v", got, now)
		}
		for step := 0; ; step++ {
			rate, next := inj.RateStep(node, now, &st)
			if step%2 == 0 {
				mag := 1 + (spec.RateExcursionFactor-1)*(1-want.Float64())
				wantRate := 1 + mag*rho
				if want.Bool(0.5) {
					wantRate = 1 - mag*rho
				}
				if d := want.Exp(spec.RateExcursionFor); rate != wantRate || next != d {
					t.Fatalf("step %d: got (%v, %v), want (%v, %v)", step, rate, next, wantRate, d)
				}
				now += next
				continue
			}
			if rate != 1 {
				t.Fatalf("step %d: excursion ended at rate %v, want 1", step, rate)
			}
			d := want.Exp(spec.RateExcursionEvery)
			if now+d > spec.Until {
				if next >= 0 {
					t.Fatalf("step %d: onset at %v passes Until %v but the chain continued", step, now+d, spec.Until)
				}
				break
			}
			if next != d {
				t.Fatalf("step %d: next %v, want %v", step, next, d)
			}
			now += next
		}
		if st.RateExcursions == 0 || st.LastFaultT != now {
			t.Fatalf("bad counters at chain end (t=%v): %+v", now, st)
		}
	})

	t.Run("crashstop", func(t *testing.T) {
		stop := Spec{CrashEvery: 1, CrashStop: true, Until: 6}.WithDefaults(20)
		inj.Wire(stop, n, rho, des.NewRand(seed))
		var st Stats
		if down, next := inj.CrashStep(node, inj.CrashStart(node), &st); !down || next >= 0 {
			t.Fatalf("crash-stop step: down=%v next=%v, want a crash that ends the chain", down, next)
		}
		if inj.RateStart(node) >= 0 {
			t.Fatal("a plan without excursions started a rate chain")
		}
	})
}

// forkPath returns the stream r.ForkInto derives along ids, one fork per
// id, in a fresh generator; r is left untouched.
func forkPath(r *des.Rand, ids ...uint64) *des.Rand {
	out := *r
	for _, id := range ids {
		out.ForkInto(id, &out)
	}
	return &out
}
