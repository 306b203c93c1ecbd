package main

import (
	"encoding/json"
	"math/bits"
	"os"
	"sync"
	"time"

	"gcs/internal/des"
)

// Tracing lives entirely on this side of the public API: spans are
// recorded around calls into a layer, and the only cut inside a run is
// the des event boundary (Engine.SetTraceHook). With tracing off none of
// this exists — reps get a nil *tracer, whose methods do nothing, and no
// hook is installed — so the end-to-end numbers never pay for it.

// span is one timed interval: a call into a layer, or a phase of a rep.
// Spans of one rep share Rep; Parent is the span that caused this one
// (-1 for a rep's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Rep     int    `json:"rep"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer collects one workload's spans and kind totals in memory; write
// puts them on disk when the benchmark ends.
type tracer struct {
	workload string
	base     time.Time

	mu    sync.Mutex
	rep   int
	spans []span
	kinds kindTotals
	// par and walBytes describe the latest rep; both repeat exactly.
	par      parStats
	walBytes int64
}

// parStats is what the sharded harness exposes about one run.
type parStats struct {
	windows     uint64
	shardEvents []uint64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its id; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: t.rep, StartNs: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// nextRep opens the root span of a new rep.
func (t *tracer) nextRep() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.rep++
	t.mu.Unlock()
	return t.begin("rep", -1)
}

// merge folds one aggregator's totals into the workload's.
func (t *tracer) merge(k *kindTotals) {
	t.mu.Lock()
	t.kinds.add(k)
	t.mu.Unlock()
}

func (t *tracer) setPar(p parStats) {
	t.mu.Lock()
	t.par = p
	t.mu.Unlock()
}

func (t *tracer) setWALBytes(n int64) {
	t.mu.Lock()
	t.walBytes = n
	t.mu.Unlock()
}

// durations returns the length in seconds of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.EndNs != 0 {
			out = append(out, s.seconds())
		}
	}
	return out
}

// traceFile is the on-disk form of one workload's trace.
type traceFile struct {
	Workload string           `json:"workload"`
	Kinds    map[string]kindJ `json:"kinds"`
	Spans    []span           `json:"spans"`
}

type kindJ struct {
	Count   uint64   `json:"count"`
	TotalNs int64    `json:"total_ns"`
	MaxNs   int64    `json:"max_ns"`
	Log2Ns  []uint64 `json:"log2_ns_histogram"`
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{Workload: t.workload, Kinds: map[string]kindJ{}, Spans: t.spans}
	for k := 0; k < numKinds; k++ {
		if t.kinds.count[k] == 0 {
			continue
		}
		hist := t.kinds.hist[k][:]
		for len(hist) > 0 && hist[len(hist)-1] == 0 {
			hist = hist[:len(hist)-1]
		}
		f.Kinds[kindNames[k]] = kindJ{Count: t.kinds.count[k], TotalNs: t.kinds.ns[k], MaxNs: t.kinds.max[k], Log2Ns: hist}
	}
	data, err := json.Marshal(f)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// kindTotals is what the event hook aggregates per kind. A run fires
// millions of events, so they are folded into a count, a total, a
// maximum and a log2 histogram rather than kept as one span each.
type kindTotals struct {
	count      [numKinds]uint64
	ns         [numKinds]int64
	max        [numKinds]int64
	hist       [numKinds][40]uint64 // bucket b holds durations in [2^(b-1), 2^b) ns
	pendingMax int
}

func (k *kindTotals) add(o *kindTotals) {
	for i := 0; i < numKinds; i++ {
		k.count[i] += o.count[i]
		k.ns[i] += o.ns[i]
		if o.max[i] > k.max[i] {
			k.max[i] = o.max[i]
		}
		for b := range k.hist[i] {
			k.hist[i][b] += o.hist[i][b]
		}
	}
	if o.pendingMax > k.pendingMax {
		k.pendingMax = o.pendingMax
	}
}

func (k *kindTotals) events() uint64 {
	var n uint64
	for _, c := range k.count {
		n += c
	}
	return n
}

func (k *kindTotals) totalNs() int64 {
	var n int64
	for _, v := range k.ns {
		n += v
	}
	return n
}

// kindAgg turns one engine's trace hook into kind spans. The hook fires
// before every event; the interval since the previous firing belongs to
// the previous event — its handler and everything that handler called,
// plus the queue pop that found the next one. A kind span is therefore
// inclusive of the callee chain: a transport.deliver event contains
// gcs.OnMessage and the timer resets it causes. One aggregator serves
// one engine on one goroutine.
type kindAgg struct {
	kindTotals
	en    *des.Engine
	base  time.Time
	timed bool
	prev  int   // kind of the event now running; -1 before the first
	prevT int64 // when its hook fired
}

// newKindAgg returns an aggregator for en. With timed false it only
// counts — the mode for shard engines, where the gaps between a shard's
// windows would be charged to whatever event ran last.
func newKindAgg(en *des.Engine, timed bool) *kindAgg {
	return &kindAgg{en: en, base: time.Now(), timed: timed, prev: -1}
}

func (a *kindAgg) hook(_ des.Time, label string) {
	k := kindOf(label)
	a.count[k]++
	if p := a.en.Pending(); p > a.pendingMax {
		a.pendingMax = p
	}
	if !a.timed {
		return
	}
	now := int64(time.Since(a.base))
	a.charge(now)
	a.prev, a.prevT = k, now
}

func (a *kindAgg) charge(now int64) {
	if a.prev < 0 {
		return
	}
	d := now - a.prevT
	a.ns[a.prev] += d
	if d > a.max[a.prev] {
		a.max[a.prev] = d
	}
	a.hist[a.prev][bits.Len64(uint64(d))%len(a.hist[0])]++
}

// flush closes the span of the last event; call it as soon as the run
// loop returns, and before the engine fires anything else.
func (a *kindAgg) flush() {
	if a.timed {
		a.charge(int64(time.Since(a.base)))
	}
	a.prev = -1
}
