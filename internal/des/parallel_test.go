package des

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// toyCluster is a minimal sharded workload for coordinator tests: every
// shard runs a periodic local event that records its fire time and
// sends a cross message to the next shard; cross deliveries record and
// echo onward with decreasing hops. All state is per-shard, so any
// worker interleaving must produce identical logs.
type toyCluster struct {
	p         *ParallelEngine
	lookahead Time
	// log[s] records (time, tag) pairs in shard s's execution order.
	log [][]toyRec
	// globalLog records global-phase observations of every shard clock.
	globalLog []float64
}

type toyRec struct {
	t   Time
	tag uint64
}

func newToyCluster(shards int, lookahead Time) *toyCluster {
	tc := &toyCluster{
		p:         NewParallelEngine(shards, lookahead),
		lookahead: lookahead,
		log:       make([][]toyRec, shards),
	}
	tc.p.SetCrossHandler(func(dst int, m CrossMsg) {
		en := tc.p.Shard(dst)
		hops := m.W1
		tag := m.W0
		en.ScheduleArg(m.DeliverAt, "toy.cross", func(arg uint64) {
			tc.log[dst] = append(tc.log[dst], toyRec{t: en.Now(), tag: arg})
			if hops > 0 {
				next := (dst + 1) % tc.p.NumShards()
				tc.p.SendCross(dst, next, CrossMsg{
					DeliverAt: en.Now() + 2*lookahead,
					W0:        arg + 1000,
					W1:        hops - 1,
				})
			}
		}, tag)
	})
	tc.armTicks()
	return tc
}

// armTicks schedules every shard's initial periodic event; callable
// again after a Reset to replay the identical workload.
func (tc *toyCluster) armTicks() {
	for s := 0; s < tc.p.NumShards(); s++ {
		s := s
		en := tc.p.Shard(s)
		var tick func()
		tick = func() {
			tc.log[s] = append(tc.log[s], toyRec{t: en.Now(), tag: uint64(s)})
			next := (s + 1) % tc.p.NumShards()
			tc.p.SendCross(s, next, CrossMsg{
				DeliverAt: en.Now() + 1.5*tc.lookahead,
				W0:        uint64(s)*100 + 7,
				W1:        2,
			})
			en.ScheduleAfter(0.5, "toy.tick", tick)
		}
		// Stagger the first ticks so shards are rarely aligned.
		en.Schedule(0.1*float64(s+1), "toy.start", tick)
	}
}

func (tc *toyCluster) run(horizon Time, workers int) {
	tc.p.Run(horizon, workers)
}

// TestParallelWorkerInvariance is the determinism contract: the same
// sharded workload produces bit-identical per-shard execution logs for
// every worker count, including the workers=1 serial reference.
func TestParallelWorkerInvariance(t *testing.T) {
	ref := newToyCluster(5, 0.05)
	ref.run(10, 1)
	if len(ref.log[0]) == 0 || ref.p.Windows() == 0 {
		t.Fatalf("degenerate reference run: %d recs, %d windows", len(ref.log[0]), ref.p.Windows())
	}
	for _, workers := range []int{2, 4, 16} {
		tc := newToyCluster(5, 0.05)
		tc.run(10, workers)
		if !reflect.DeepEqual(tc.log, ref.log) {
			t.Fatalf("workers=%d diverged from serial reference", workers)
		}
		if tc.p.Executed() != ref.p.Executed() {
			t.Fatalf("workers=%d executed %d events, reference %d",
				workers, tc.p.Executed(), ref.p.Executed())
		}
	}
}

// TestParallelGlobalBarrier pins the global-phase contract: a global
// event fires with every shard's clock advanced to exactly the event's
// time, and with no earlier shard event still pending.
func TestParallelGlobalBarrier(t *testing.T) {
	tc := newToyCluster(3, 0.05)
	var sample func()
	sample = func() {
		g := tc.p.Global()
		for s := 0; s < tc.p.NumShards(); s++ {
			sh := tc.p.Shard(s)
			if sh.Now() != g.Now() {
				t.Errorf("global event at %v saw shard %d at %v", g.Now(), s, sh.Now())
			}
			if nt, ok := sh.NextEventTime(); ok && nt < g.Now() {
				t.Errorf("global event at %v with shard %d event still pending at %v", g.Now(), s, nt)
			}
		}
		tc.globalLog = append(tc.globalLog, g.Now())
		g.ScheduleAfter(0.3, "toy.sample", sample)
	}
	tc.p.Global().Schedule(0, "toy.sample", sample)
	tc.run(5, 4)
	if len(tc.globalLog) < 16 {
		t.Fatalf("global sampler fired %d times, want ~17", len(tc.globalLog))
	}
	for i, at := range tc.globalLog {
		if want := 0.3 * float64(i); math.Abs(at-want) > 1e-9 {
			t.Fatalf("global sample %d at %v, want %v", i, at, want)
		}
	}
}

// TestParallelHorizonSemantics pins Run's end state: events at exactly
// the horizon fire, and every engine finishes at the horizon.
func TestParallelHorizonSemantics(t *testing.T) {
	p := NewParallelEngine(2, 0.1)
	p.SetCrossHandler(func(int, CrossMsg) {})
	edgeFired := false
	p.Shard(0).Schedule(3, "edge", func() { edgeFired = true })
	p.Shard(1).Schedule(1, "mid", func() {})
	p.Global().Schedule(2, "gmid", func() {})
	p.Run(3, 2)
	if !edgeFired {
		t.Fatal("event exactly at horizon did not fire")
	}
	for s := 0; s < 2; s++ {
		if p.Shard(s).Now() != 3 {
			t.Fatalf("shard %d finished at %v, want horizon 3", s, p.Shard(s).Now())
		}
	}
	if p.Global().Now() != 3 {
		t.Fatalf("global finished at %v, want horizon 3", p.Global().Now())
	}
}

// TestParallelLookaheadViolationPanics pins the machine-checked safety
// net: a cross message whose delivery time is behind the destination
// shard's clock (a delay below the lookahead) panics at merge rather
// than silently firing in the past — and the panic message names the
// destination shard and both clocks, since it is the one diagnostic a
// physics bug in a sharded run produces.
func TestParallelLookaheadViolationPanics(t *testing.T) {
	p := NewParallelEngine(2, 0.5)
	p.SetCrossHandler(func(dst int, m CrossMsg) {
		p.Shard(dst).Schedule(m.DeliverAt, "cross", func() {})
	})
	// Shard 1 runs far into the window; shard 0's event then emits a
	// cross message with a delay far below the lookahead.
	var tick func()
	en1 := p.Shard(1)
	tick = func() { en1.ScheduleAfter(0.01, "busy", tick) }
	en1.Schedule(0, "busy", tick)
	p.Shard(0).Schedule(0, "bad", func() {
		p.SendCross(0, 1, CrossMsg{DeliverAt: p.Shard(0).Now() + 1e-9})
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead violation did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want the diagnostic string", r)
		}
		if !strings.Contains(msg, "lookahead violated") ||
			!strings.Contains(msg, "cross message into shard 1") {
			t.Fatalf("panic message %q lacks the shard/lookahead diagnostic", msg)
		}
	}()
	p.Run(1, 1)
}

// TestParallelReset pins arena-style reuse: Reset returns every engine
// to time 0 with empty queues, and re-arming the same workload on the
// reused coordinator replays it bit-identically.
func (tc *toyCluster) snapshot() [][]toyRec {
	out := make([][]toyRec, len(tc.log))
	for i := range tc.log {
		out[i] = append([]toyRec(nil), tc.log[i]...)
	}
	return out
}

func TestParallelReset(t *testing.T) {
	tc := newToyCluster(4, 0.05)
	tc.run(5, 3)
	first := tc.snapshot()

	tc.p.Reset()
	for s := 0; s < tc.p.NumShards(); s++ {
		if tc.p.Shard(s).Now() != 0 || tc.p.Shard(s).Pending() != 0 {
			t.Fatalf("shard %d not reset: now=%v pending=%d",
				s, tc.p.Shard(s).Now(), tc.p.Shard(s).Pending())
		}
	}
	for i := range tc.log {
		tc.log[i] = tc.log[i][:0]
	}
	tc.armTicks()
	tc.run(5, 3)
	if !reflect.DeepEqual(first, tc.snapshot()) {
		t.Fatal("reused coordinator diverged from its first run")
	}
	if fmt.Sprint(first) == "" {
		t.Fatal("unreachable")
	}
}

// TestParallelOneShardIsSerial pins the one-shard engine set: its only
// shard is the global engine, so shard and global events share one heap
// and fire in (t, seq) order — a global event at t runs after a shard
// event at t scheduled before it, which the multi-shard coordinator's
// global-first barrier would reverse. Run opens no window, Executed and
// Reset count that engine once, and lookahead 0 is accepted for one
// shard only. One shard with a positive lookahead is windowed instead.
func TestParallelOneShardIsSerial(t *testing.T) {
	p := NewParallelEngine(1, 0)
	if p.Shard(0) != p.Global() {
		t.Fatal("one shard is not the global engine")
	}
	var order []string
	p.Shard(0).Schedule(1, "shard", func() { order = append(order, "shard") })
	p.Global().Schedule(1, "global", func() { order = append(order, "global") })
	p.Shard(0).Schedule(2, "late", func() { order = append(order, "late") })
	p.Run(1.5, 4)
	if want := []string{"shard", "global"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("fired %v by t=1.5, want %v", order, want)
	}
	if p.Global().Now() != 1.5 || p.Windows() != 0 || p.Executed() != 2 {
		t.Fatalf("now=%v windows=%d executed=%d, want 1.5, 0, 2", p.Global().Now(), p.Windows(), p.Executed())
	}
	p.Run(3, 1)
	if len(order) != 3 || p.Executed() != 3 {
		t.Fatalf("continued run fired %v (executed %d), want the late event too", order, p.Executed())
	}
	p.Reset()
	if p.Global().Now() != 0 || p.Global().Pending() != 0 || p.Executed() != 0 {
		t.Fatal("Reset left the one engine dirty")
	}
	if w := NewParallelEngine(1, 0.1); w.Shard(0) == w.Global() {
		t.Fatal("one shard with positive lookahead is the global engine")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("two shards accepted lookahead 0")
		}
	}()
	NewParallelEngine(2, 0)
}

// TestParallelMergeOrder pins the one delivery order: the merge hands a
// destination the messages that share a DeliverAt in stable W0 order,
// whatever shard sent each and in whatever order the shards sent them —
// equal keys keep their sender's FIFO order — and so does every worker
// count. Each shard sends its batch from one event at time 0, so the
// whole batch merges at once.
func TestParallelMergeOrder(t *testing.T) {
	type got struct {
		at     Time
		w0, w1 uint64
	}
	run := func(workers int) [][]got {
		p := NewParallelEngine(3, 0.5)
		out := make([][]got, 3)
		p.SetCrossHandler(func(dst int, m CrossMsg) {
			out[dst] = append(out[dst], got{m.DeliverAt, m.W0, m.W1})
		})
		for src := 0; src < 3; src++ {
			src := src
			p.Shard(src).Schedule(0, "send", func() {
				// Senders 2-src and 5-src on every shard, so a later source
				// shard holds lower keys; W1 tags the send order.
				for i, w0 := range []uint64{uint64(5 - src), uint64(2 - src), uint64(5 - src), uint64(2 - src)} {
					for dst := 0; dst < 3; dst++ {
						at := 1.0
						if i == 3 {
							at = 0.75
						}
						p.SendCross(src, dst, CrossMsg{DeliverAt: at, W0: w0, W1: uint64(src*10 + i)})
					}
				}
			})
		}
		p.Run(1.5, workers)
		return out
	}
	one := run(1)
	for dst, batch := range one {
		if len(batch) != 12 {
			t.Fatalf("shard %d merged %d messages, want 12", dst, len(batch))
		}
		last := map[Time]got{}
		for _, b := range batch {
			if a, ok := last[b.at]; ok && (a.w0 > b.w0 || a.w0 == b.w0 && a.w1 > b.w1) {
				t.Fatalf("shard %d: %+v handed over before %+v", dst, a, b)
			}
			last[b.at] = b
		}
	}
	if two := run(2); !reflect.DeepEqual(two, one) {
		t.Fatalf("two workers merged\n%v\none merged\n%v", two, one)
	}
}
