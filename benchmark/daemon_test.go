package main

import (
	"reflect"
	"testing"

	"gcs/internal/store"
)

// TestTimedRepoPassesThrough drives the same calls through a bare
// repository and a decorated one: every result must be identical, and
// every timed call must leave exactly one closed span.
func TestTimedRepoPassesThrough(t *testing.T) {
	tr := newTracer("t")
	root := tr.nextRep()
	bare, timed := store.NewMemory(), &timedRepo{Repository: store.NewMemory(), tr: tr, parent: root}
	job := store.JobRecord{ID: "j1", Spec: []byte(`{"ns":[8]}`), Status: store.StatusRunning, Cells: 2}
	missing := probeCell(99).Key

	for _, repo := range []store.Repository{bare, timed} {
		for seed := uint64(0); seed < 3; seed++ {
			if err := repo.PutCell(probeCell(seed)); err != nil {
				t.Fatal(err)
			}
		}
		if err := repo.PutJob(job); err != nil {
			t.Fatal(err)
		}
		if err := repo.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	for seed := uint64(0); seed < 3; seed++ {
		want, okWant := bare.GetCell(probeCell(seed).Key)
		got, okGot := timed.GetCell(probeCell(seed).Key)
		if !okWant || !okGot || !reflect.DeepEqual(got, want) {
			t.Errorf("GetCell(seed %d) = %+v, %v; want %+v, %v", seed, got, okGot, want, okWant)
		}
	}
	if _, ok := timed.GetCell(missing); ok {
		t.Error("decorated repo found a cell that was never put")
	}
	if got, ok := timed.GetJob("j1"); !ok || !reflect.DeepEqual(got, job) {
		t.Errorf("GetJob = %+v, %v", got, ok)
	}
	if !reflect.DeepEqual(timed.Jobs(), bare.Jobs()) {
		t.Errorf("Jobs = %+v, want %+v", timed.Jobs(), bare.Jobs())
	}
	if err := timed.Close(); err != nil {
		t.Fatal(err)
	}

	for name, want := range map[string]int{"store.put_cell": 3, "store.get_cell": 4, "store.put_job": 1, "store.sync": 1} {
		if got := len(tr.durations(name)); got != want {
			t.Errorf("%d closed %s spans, want %d", got, name, want)
		}
	}
	for _, s := range tr.spans[1:] {
		if s.Parent != root {
			t.Errorf("span %+v is not a child of the rep", s)
		}
	}
}
