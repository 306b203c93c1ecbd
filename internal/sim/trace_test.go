package sim

import "testing"

func TestTraceRecorderChronologicalOrder(t *testing.T) {
	tr := NewTraceRecorder(2, 4)
	for i := 0; i < 3; i++ {
		tr.Record(float64(i), []float64{float64(i), float64(i) + 10})
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	for i := 0; i < 3; i++ {
		tm, vals := tr.Sample(i)
		if tm != float64(i) || vals[0] != float64(i) || vals[1] != float64(i)+10 {
			t.Fatalf("sample %d = (%v, %v)", i, tm, vals)
		}
	}
}

func TestTraceRecorderRingOverwritesOldest(t *testing.T) {
	tr := NewTraceRecorder(1, 3)
	for i := 0; i < 5; i++ {
		tr.Record(float64(i), []float64{float64(100 + i)})
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want capacity 3", tr.Len())
	}
	// Samples 0..1 were overwritten; the window is 2, 3, 4.
	for i := 0; i < 3; i++ {
		tm, vals := tr.Sample(i)
		if tm != float64(2+i) || vals[0] != float64(102+i) {
			t.Fatalf("sample %d = (%v, %v), want (%d, [%d])", i, tm, vals, 2+i, 102+i)
		}
	}
}

func TestTraceRecorderSkew(t *testing.T) {
	tr := NewTraceRecorder(3, 2)
	tr.Record(1.5, []float64{5, 2, 9})
	tm, min, max := tr.Skew(0)
	if tm != 1.5 || min != 2 || max != 9 {
		t.Fatalf("skew sample = (%v, %v, %v), want (1.5, 2, 9)", tm, min, max)
	}
}

func TestTraceRecorderResetReusesBuffers(t *testing.T) {
	tr := NewTraceRecorder(8, 16)
	for i := 0; i < 20; i++ {
		tr.Record(float64(i), make([]float64, 8))
	}
	// Shrinking the node count must not allocate.
	allocs := testing.AllocsPerRun(10, func() {
		tr.Reset(4)
	})
	if allocs > 0 {
		t.Errorf("Reset to smaller node count allocated %v objects", allocs)
	}
	if tr.Len() != 0 || tr.n != 4 {
		t.Fatalf("reset state: len=%d nodes=%d", tr.Len(), tr.n)
	}
	// Growing requires one reallocation, after which recording is free.
	tr.Reset(32)
	row := make([]float64, 32)
	allocs = testing.AllocsPerRun(100, func() {
		tr.Record(1, row)
	})
	if allocs > 0 {
		t.Errorf("Record allocated %v objects/op, want 0", allocs)
	}
}

func TestTraceRecorderRejectsWrongRowWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("recording a wrong-width row did not panic")
		}
	}()
	NewTraceRecorder(2, 2).Record(0, []float64{1})
}

// TestSimulationTraceMatchesReport cross-checks the wiring: the skew
// derived from the recorded trace must reproduce the report's
// MaxGlobalSkew when the ring is large enough to hold every sample.
func TestSimulationTraceMatchesReport(t *testing.T) {
	cfg := Config{
		N:        8,
		Seed:     3,
		Horizon:  5,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveBangBang, Interval: 0.5},
	}
	s := New(cfg)
	tr := NewTraceRecorder(1, 256) // wrong shape on purpose; AttachTrace resets
	s.AttachTrace(tr)
	rpt := s.Run()
	if tr.n != 8 {
		t.Fatalf("AttachTrace did not reshape the recorder: nodes=%d", tr.n)
	}
	if tr.Len() != rpt.Samples {
		t.Fatalf("trace holds %d samples, report counted %d", tr.Len(), rpt.Samples)
	}
	maxSkew := 0.0
	for i := 0; i < tr.Len(); i++ {
		_, min, max := tr.Skew(i)
		if max-min > maxSkew {
			maxSkew = max - min
		}
	}
	if maxSkew != rpt.MaxGlobalSkew {
		t.Fatalf("trace max skew %v != report %v", maxSkew, rpt.MaxGlobalSkew)
	}
}
