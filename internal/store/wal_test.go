package store

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gcs/internal/sim"
)

func testCell(seed uint64) CellResult {
	cfg := sim.Config{N: 16, Seed: seed, Horizon: 1}
	return CellResult{
		Key: KeyOf(cfg),
		Cfg: cfg.WithDefaults(),
		Report: sim.SkewReport{
			MaxGlobalSkew: 0.01 * float64(seed), Bound: 1.5, Samples: int(seed),
		},
		Attempts: 1,
	}
}

func openTestWAL(t *testing.T, dir string, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// firstSegment returns the path of the store's lowest-numbered segment.
func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return matches[0]
}

// TestWALRoundTrip: puts survive close and reopen, for cells and jobs.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	c1, c2 := testCell(1), testCell(2)
	job := JobRecord{ID: "j1", Spec: json.RawMessage(`{"ns":[16]}`), Status: StatusRunning, Cells: 2}
	for _, err := range []error{w.PutCell(c1), w.PutCell(c2), w.PutJob(job)} {
		if err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	job.Status = StatusDone
	if err := w.PutJob(job); err != nil {
		t.Fatalf("put: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r := openTestWAL(t, dir, WALOptions{})
	defer r.Close()
	for _, want := range []CellResult{c1, c2} {
		got, ok := r.GetCell(want.Key)
		if !ok {
			t.Fatalf("cell %v missing after reopen", want.Key)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cell round trip:\n got %+v\nwant %+v", got, want)
		}
	}
	jobs := r.Jobs()
	if len(jobs) != 1 || jobs[0].Status != StatusDone || jobs[0].Cells != 2 {
		t.Fatalf("job round trip: %+v", jobs)
	}
}

// TestWALNonFiniteReport: ReconvergenceTime = +Inf (a faulted cell that
// never re-converged) is a legal report value JSON numbers cannot
// carry; the record form must round-trip it exactly.
func TestWALNonFiniteReport(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	c := testCell(3)
	c.Report.ReconvergenceTime = math.Inf(1)
	if err := w.PutCell(c); err != nil {
		t.Fatalf("put: %v", err)
	}
	w.Close()
	r := openTestWAL(t, dir, WALOptions{})
	defer r.Close()
	got, ok := r.GetCell(c.Key)
	if !ok {
		t.Fatal("cell missing after reopen")
	}
	if !math.IsInf(got.Report.ReconvergenceTime, 1) {
		t.Fatalf("ReconvergenceTime round-tripped to %v, want +Inf", got.Report.ReconvergenceTime)
	}
}

// TestWALTornFinalRecord: a crash mid-append leaves a partial frame at
// the tail. Open must recover every complete record, truncate the torn
// tail on disk, and leave the store appendable.
func TestWALTornFinalRecord(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"shortHeader":  func(b []byte) []byte { return append(b, 0x21, 0x07) },
		"shortPayload": func(b []byte) []byte { return append(b, 0x40, 0, 0, 0, 1, 2, 3, 4, 0xde, 0xad) },
		"absurdLength": func(b []byte) []byte {
			return append(b, 0xff, 0xff, 0xff, 0x7f, 1, 2, 3, 4, 0xde, 0xad, 0xbe, 0xef)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			w := openTestWAL(t, dir, WALOptions{})
			c1, c2 := testCell(1), testCell(2)
			if err := w.PutCell(c1); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := w.PutCell(c2); err != nil {
				t.Fatalf("put: %v", err)
			}
			w.Close()

			seg := firstSegment(t, dir)
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			r := openTestWAL(t, dir, WALOptions{NoAutoCompact: true})
			defer r.Close()
			if _, ok := r.GetCell(c1.Key); !ok {
				t.Fatal("intact record lost to torn-tail recovery")
			}
			if _, ok := r.GetCell(c2.Key); !ok {
				t.Fatal("intact record lost to torn-tail recovery")
			}
			if r.Stats().TruncatedBytes == 0 {
				t.Fatal("recovery did not report the torn tail")
			}
			if got, _ := os.ReadFile(seg); len(got) != len(data) {
				t.Fatalf("torn tail not truncated on disk: %d bytes, want %d", len(got), len(data))
			}
			// The store must stay writable and re-openable after recovery.
			c3 := testCell(3)
			if err := r.PutCell(c3); err != nil {
				t.Fatalf("put after recovery: %v", err)
			}
			r.Close()
			r2 := openTestWAL(t, dir, WALOptions{})
			defer r2.Close()
			if _, ok := r2.GetCell(c3.Key); !ok {
				t.Fatal("post-recovery write lost")
			}
		})
	}
}

// TestWALCRCMismatchMidSegment: a flipped byte in the middle of a
// segment invalidates that frame's CRC. Replay keeps everything before
// the corruption, drops the corrupt suffix of that segment (frame
// boundaries after a bad frame cannot be trusted), continues with later
// segments, and never panics.
func TestWALCRCMismatchMidSegment(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: each record rotates into its own segment, so we can
	// corrupt a middle segment specifically.
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 1})
	cells := []CellResult{testCell(1), testCell(2), testCell(3)}
	for _, c := range cells {
		if err := w.PutCell(c); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	w.Close()
	segs, err := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >= 3 segments, got %v (err %v)", segs, err)
	}

	mid := segs[1]
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTestWAL(t, dir, WALOptions{NoAutoCompact: true})
	defer r.Close()
	if _, ok := r.GetCell(cells[0].Key); !ok {
		t.Fatal("record before the corruption lost")
	}
	if _, ok := r.GetCell(cells[1].Key); ok {
		t.Fatal("corrupt record survived its CRC mismatch")
	}
	if _, ok := r.GetCell(cells[2].Key); !ok {
		t.Fatal("record in a later segment lost to earlier corruption")
	}
	if r.Stats().TruncatedBytes == 0 {
		t.Fatal("recovery did not report the corrupt bytes")
	}
}

// TestWALDuplicateRecord: the same cell put twice (a retry that raced a
// crash, or two jobs sharing a cell) replays to one consistent entry —
// last record wins — and compaction folds the duplicate out.
func TestWALDuplicateRecord(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{})
	c := testCell(1)
	if err := w.PutCell(c); err != nil {
		t.Fatalf("put: %v", err)
	}
	c.Attempts = 3 // the retry's record supersedes the first
	if err := w.PutCell(c); err != nil {
		t.Fatalf("put: %v", err)
	}
	w.Close()

	r := openTestWAL(t, dir, WALOptions{NoAutoCompact: true})
	got, ok := r.GetCell(c.Key)
	if !ok {
		t.Fatal("cell missing after duplicate replay")
	}
	if got.Attempts != 3 {
		t.Fatalf("last record did not win: attempts %d", got.Attempts)
	}
	if r.Stats().Superseded == 0 {
		t.Fatal("duplicate not counted as superseded")
	}
	r.Close()
	openTestWAL(t, dir, WALOptions{}).Close() // compacts on open

	r2 := openTestWAL(t, dir, WALOptions{NoAutoCompact: true})
	defer r2.Close()
	st := r2.Stats()
	if st.Superseded != 0 || st.RecordsReplayed != 1 {
		t.Fatalf("compaction left duplicates: %+v", st)
	}
	if got, ok := r2.GetCell(c.Key); !ok || got.Attempts != 3 {
		t.Fatalf("compacted state wrong: %+v ok=%t", got, ok)
	}
}

// TestWALEmptySegmentFile: a zero-length segment (crash between segment
// creation and first append) is a clean, consistent store.
func TestWALEmptySegmentFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walSegPrefix+"00000000"+walSegSuffix), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir, WALOptions{})
	defer w.Close()
	c := testCell(1)
	if err := w.PutCell(c); err != nil {
		t.Fatalf("put into recovered empty store: %v", err)
	}
	if _, ok := w.GetCell(c.Key); !ok {
		t.Fatal("cell missing")
	}
}

// TestWALRotationAndCompaction: the active segment rotates at the size
// cap; reopening a store whose replay saw a superseded record (the job
// status rewrite) auto-compacts it into fewer segments with identical
// state.
func TestWALRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir, WALOptions{SegmentBytes: 512})
	var cells []CellResult
	for seed := uint64(1); seed <= 12; seed++ {
		c := testCell(seed)
		cells = append(cells, c)
		if err := w.PutCell(c); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	job := JobRecord{ID: "j", Spec: json.RawMessage(`{}`), Status: StatusRunning, Cells: 12}
	if err := w.PutJob(job); err != nil {
		t.Fatalf("put: %v", err)
	}
	job.Status = StatusDone
	if err := w.PutJob(job); err != nil {
		t.Fatalf("put: %v", err)
	}
	if w.Stats().Segments < 2 {
		t.Fatalf("no rotation after %d records in 512-byte segments", len(cells)+2)
	}
	w.Close()
	before, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))

	w2 := openTestWAL(t, dir, WALOptions{SegmentBytes: 512})
	defer w2.Close()
	if w2.Stats().Compactions == 0 {
		t.Fatal("reopen over superseded records did not auto-compact")
	}
	segs, _ := filepath.Glob(filepath.Join(dir, walSegPrefix+"*"+walSegSuffix))
	if len(segs) >= len(before) {
		t.Fatalf("compaction kept %d segments (was %d)", len(segs), len(before))
	}
	for _, c := range cells {
		if got, ok := w2.GetCell(c.Key); !ok || !reflect.DeepEqual(got, c) {
			t.Fatalf("state diverged after compaction: %+v ok=%t", got, ok)
		}
	}
	if j, ok := w2.GetJob("j"); !ok || j.Status != StatusDone {
		t.Fatalf("job diverged after compaction: %+v ok=%t", j, ok)
	}
}

// TestKeyContentAddress: the key is a pure function of the physics —
// defaults and worker counts never split it, seeds always do.
func TestKeyContentAddress(t *testing.T) {
	base := sim.Config{N: 32, Seed: 7, Parallel: true, Shards: 4}
	if KeyOf(base) != KeyOf(base.WithDefaults()) {
		t.Fatal("defaulting changed the content address")
	}
	workers := base
	workers.Workers = 8
	if KeyOf(base) != KeyOf(workers) {
		t.Fatal("worker count changed the content address")
	}
	reseeded := base
	reseeded.Seed = 8
	if KeyOf(base) == KeyOf(reseeded) {
		t.Fatal("different seeds share a content address")
	}
}

// TestKeyHexRoundTrip: the textual form round-trips and rejects junk.
func TestKeyHexRoundTrip(t *testing.T) {
	k := KeyOf(sim.Config{N: 8})
	text, err := k.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	var back Key
	if err := back.UnmarshalText(text); err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Fatal("key hex round trip diverged")
	}
	if err := back.UnmarshalText([]byte("nope")); err == nil {
		t.Fatal("short junk accepted as a key")
	}
}
