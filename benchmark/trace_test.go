package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gcs/internal/des"
)

// spin burns host time without yielding, like an event handler.
func spin(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

// TestKindAggOnSyntheticSchedule runs a hand-made schedule under the
// hook and checks the two ways the aggregator could lie: the kind counts
// must sum to exactly what the engine executed, and the kind times must
// sum to the wall time of the run (within 1%).
func TestKindAggOnSyntheticSchedule(t *testing.T) {
	en := des.NewEngine()
	labels := []string{"transport.deliver", "gcs.beacon", "gcs.catchup", "clock.walk", "clock.bang",
		"sim.sample", "churn.star.rotate", "fault.crash", "psim.deliver", "somebody.new"}
	want := map[string]uint64{}
	for i := 0; i < 400; i++ {
		label := labels[i%len(labels)]
		want[kindNames[kindOf(label)]]++
		en.Schedule(des.Time(i)*0.01, label, func() { spin(50 * time.Microsecond) })
	}
	agg := newKindAgg(en, true)
	en.SetTraceHook(agg.hook)
	t0 := time.Now()
	en.Run(10)
	agg.flush()
	wall := time.Since(t0)

	if got := agg.events(); got != en.Executed() || got != 400 {
		t.Fatalf("kind counts sum to %d, engine executed %d, scheduled 400", got, en.Executed())
	}
	for k := 0; k < numKinds; k++ {
		if agg.count[k] != want[kindNames[k]] {
			t.Errorf("%s.count = %d, want %d", kindNames[k], agg.count[k], want[kindNames[k]])
		}
	}
	if agg.count[kindOther] != 40 || agg.count[kindDrive] != 80 {
		t.Errorf("unknown labels and both clock drivers must be counted: other=%d drive=%d",
			agg.count[kindOther], agg.count[kindDrive])
	}
	if total := time.Duration(agg.totalNs()); total > wall || float64(total) < 0.99*float64(wall) {
		t.Errorf("kind spans cover %v of a %v run; want within 1%%", total, wall)
	}
	if agg.pendingMax != 399 {
		t.Errorf("pendingMax = %d, want 399 (the hook fires after the pop)", agg.pendingMax)
	}
	var hist uint64
	for _, n := range agg.hist[kindDeliver] {
		hist += n
	}
	if hist != agg.count[kindDeliver] || agg.max[kindDeliver] < int64(50*time.Microsecond) {
		t.Errorf("histogram holds %d of %d spans, max %dns", hist, agg.count[kindDeliver], agg.max[kindDeliver])
	}
}

// TestKindAggCountOnly pins the shard-engine mode: counts, no times.
func TestKindAggCountOnly(t *testing.T) {
	en := des.NewEngine()
	for i := 0; i < 10; i++ {
		en.Schedule(des.Time(i), "psim.deliver", func() {})
	}
	agg := newKindAgg(en, false)
	en.SetTraceHook(agg.hook)
	en.Run(100)
	agg.flush()
	if agg.count[kindPsimDeliver] != 10 || agg.totalNs() != 0 {
		t.Errorf("count-only aggregator: count %d, time %d", agg.count[kindPsimDeliver], agg.totalNs())
	}
}

func TestNilTracerDoesNothing(t *testing.T) {
	var tr *tracer
	id := tr.nextRep()
	tr.end(tr.begin("x", id))
	tr.end(id)
	if id != -1 {
		t.Errorf("nil tracer handed out span %d", id)
	}
}

func TestTracerSpansAndFile(t *testing.T) {
	tr := newTracer("w")
	root := tr.nextRep()
	child := tr.begin("sim.run", root)
	spin(200 * time.Microsecond)
	tr.end(child)
	open := tr.begin("never.closed", root)
	tr.end(root)
	var k kindTotals
	k.count[kindBeacon], k.ns[kindBeacon], k.hist[kindBeacon][10] = 3, 3000, 3
	tr.merge(&k)

	if d := tr.durations("sim.run"); len(d) != 1 || d[0] < 200e-6 {
		t.Errorf("sim.run durations = %v", d)
	}
	if d := tr.durations("never.closed"); len(d) != 0 {
		t.Errorf("an open span has no duration, got %v", d)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || len(f.Spans) != 3 || f.Kinds["gcs.beacon"].Count != 3 || len(f.Kinds) != 1 {
		t.Errorf("trace file = %+v", f)
	}
	if s := f.Spans[child]; s.Parent != root || s.Rep != 1 || s.Name != "sim.run" || s.EndNs <= s.StartNs {
		t.Errorf("child span = %+v", s)
	}
	if f.Spans[open].EndNs != 0 || f.Spans[root].Parent != -1 {
		t.Errorf("spans = %+v", f.Spans)
	}
}
