package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"gcs/internal/des"
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
	}
}

func openTestWAL(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

// frameOf returns rec's frame as the WAL writes it.
func frameOf(t *testing.T, rec walRecord) []byte {
	t.Helper()
	frame, err := appendFrame(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// onlyLog fails unless dir holds wal.log and nothing else.
func onlyLog(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != walLog {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("store directory holds %v, want only %s", names, walLog)
	}
}

// TestWALRoundTrip: puts survive close and reopen, for cells and jobs.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
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

	r := openTestWAL(t, dir)
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
	onlyLog(t, dir)
}

// TestWALNonFiniteReport: ReconvergenceTime = +Inf (a faulted cell that
// never re-converged) is a legal report value JSON numbers cannot
// carry; the record form must round-trip it exactly.
func TestWALNonFiniteReport(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	c := testCell(3)
	c.Report.ReconvergenceTime = math.Inf(1)
	if err := w.PutCell(c); err != nil {
		t.Fatalf("put: %v", err)
	}
	w.Close()
	r := openTestWAL(t, dir)
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
// the tail. Open must recover every complete record, count exactly the
// torn bytes, compact them off disk, and leave the store appendable.
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
			w := openTestWAL(t, dir)
			c1, c2 := testCell(1), testCell(2)
			if err := w.PutCell(c1); err != nil {
				t.Fatalf("put: %v", err)
			}
			if err := w.PutCell(c2); err != nil {
				t.Fatalf("put: %v", err)
			}
			w.Close()

			path := filepath.Join(dir, walLog)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			torn := tear(bytes.Clone(data))
			if err := os.WriteFile(path, torn, 0o644); err != nil {
				t.Fatal(err)
			}

			r := openTestWAL(t, dir)
			defer r.Close()
			if _, ok := r.GetCell(c1.Key); !ok {
				t.Fatal("intact record lost to torn-tail recovery")
			}
			if _, ok := r.GetCell(c2.Key); !ok {
				t.Fatal("intact record lost to torn-tail recovery")
			}
			if st := r.Stats(); st.TruncatedBytes != int64(len(torn)-len(data)) || st.Compactions != 1 {
				t.Fatalf("recovery reported %+v, want %d torn bytes and one compaction", st, len(torn)-len(data))
			}
			if got, _ := os.ReadFile(path); len(got) != len(data) {
				t.Fatalf("torn tail not compacted off disk: %d bytes, want %d", len(got), len(data))
			}
			onlyLog(t, dir)
			// The store must stay writable and re-openable after recovery.
			c3 := testCell(3)
			if err := r.PutCell(c3); err != nil {
				t.Fatalf("put after recovery: %v", err)
			}
			r.Close()
			r2 := openTestWAL(t, dir)
			defer r2.Close()
			if _, ok := r2.GetCell(c3.Key); !ok {
				t.Fatal("post-recovery write lost")
			}
		})
	}
}

// TestWALCRCMismatchMidLog: a flipped byte in the middle of the log
// invalidates that frame's CRC. Replay skips exactly that frame's bytes,
// resumes at the next whole frame, and keeps every record around it.
func TestWALCRCMismatchMidLog(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	cells := []CellResult{testCell(1), testCell(2), testCell(3)}
	for _, c := range cells {
		if err := w.PutCell(c); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	w.Close()

	path := filepath.Join(dir, walLog)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := len(frameOf(t, walRecord{Cell: &cells[0]}))
	mid := len(frameOf(t, walRecord{Cell: &cells[1]}))
	data[first+mid/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	r := openTestWAL(t, dir)
	defer r.Close()
	if _, ok := r.GetCell(cells[0].Key); !ok {
		t.Fatal("record before the corruption lost")
	}
	if _, ok := r.GetCell(cells[1].Key); ok {
		t.Fatal("corrupt record survived its CRC mismatch")
	}
	if _, ok := r.GetCell(cells[2].Key); !ok {
		t.Fatal("record after the corruption lost")
	}
	if st := r.Stats(); st.TruncatedBytes != int64(mid) || st.RecordsReplayed != 2 {
		t.Fatalf("recovery reported %+v, want the %d bytes of one frame skipped", st, mid)
	}
	onlyLog(t, dir)
}

// TestWALDuplicateRecord: the same cell put twice (two daemons over one
// store that both ran it) replays to one entry, the fact both records
// hold, and compaction folds the duplicate out.
func TestWALDuplicateRecord(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	c := testCell(1)
	for range 2 {
		if err := w.PutCell(c); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	w.Close()

	r := openTestWAL(t, dir) // compacts on open
	got, ok := r.GetCell(c.Key)
	if !ok {
		t.Fatal("cell missing after duplicate replay")
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("duplicate replayed to %+v, want %+v", got, c)
	}
	if st := r.Stats(); st.Superseded != 1 || st.Compactions != 1 {
		t.Fatalf("duplicate not reported as superseded and compacted: %+v", st)
	}
	r.Close()

	r2 := openTestWAL(t, dir)
	defer r2.Close()
	if st := r2.Stats(); st != (WALStats{RecordsReplayed: 1}) {
		t.Fatalf("compaction left duplicates: %+v", st)
	}
	if got, ok := r2.GetCell(c.Key); !ok || !reflect.DeepEqual(got, c) {
		t.Fatalf("compacted state wrong: %+v ok=%t", got, ok)
	}
}

// TestWALEmptySegmentFile: a zero-length log (a crash between its
// creation and the first append), or a zero-length segment of an
// earlier version, is a clean, consistent store.
func TestWALEmptySegmentFile(t *testing.T) {
	for _, name := range []string{walLog, "wal-00000000.log"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
		w := openTestWAL(t, dir)
		onlyLog(t, dir)
		c := testCell(1)
		if err := w.PutCell(c); err != nil {
			t.Fatalf("%s: put into recovered empty store: %v", name, err)
		}
		if _, ok := w.GetCell(c.Key); !ok {
			t.Fatalf("%s: cell missing", name)
		}
		w.Close()
	}
}

// TestWALCompaction: reopening a store whose replay saw a superseded
// record (the job status rewrite) compacts it into one log holding
// exactly the live records, with identical state; the compacted log is
// clean, so the next open leaves it byte for byte as it is.
func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
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
	stale := len(frameOf(t, walRecord{Job: &job}))
	job.Status = StatusDone
	if err := w.PutJob(job); err != nil {
		t.Fatalf("put: %v", err)
	}
	w.Close()
	path := filepath.Join(dir, walLog)
	before, _ := os.ReadFile(path)

	w2 := openTestWAL(t, dir)
	if st := w2.Stats(); st != (WALStats{RecordsReplayed: 14, Superseded: 1, Compactions: 1}) {
		t.Fatalf("reopen over a superseded record: %+v, want one compaction", st)
	}
	onlyLog(t, dir)
	after, _ := os.ReadFile(path)
	if len(after) != len(before)-stale {
		t.Fatalf("compacted log is %d bytes, want %d (the superseded job frame dropped)", len(after), len(before)-stale)
	}
	for _, c := range cells {
		if got, ok := w2.GetCell(c.Key); !ok || !reflect.DeepEqual(got, c) {
			t.Fatalf("state diverged after compaction: %+v ok=%t", got, ok)
		}
	}
	if j, ok := w2.GetJob("j"); !ok || j.Status != StatusDone {
		t.Fatalf("job diverged after compaction: %+v ok=%t", j, ok)
	}
	w2.Close()
	openTestWAL(t, dir).Close()
	if again, _ := os.ReadFile(path); !bytes.Equal(again, after) {
		t.Fatal("reopening a compacted log rewrote it")
	}
}

// TestWALOpenReportsRecovery: the stats after Open describe what that
// open replayed and recovered, although it then compacted. An 8-job
// daemon run writes each job twice (running, then done) and may be cut
// mid-append.
func TestWALOpenReportsRecovery(t *testing.T) {
	dir := t.TempDir()
	w := openTestWAL(t, dir)
	for _, status := range []JobStatus{StatusRunning, StatusDone} {
		for i := range 8 {
			j := JobRecord{ID: fmt.Sprintf("j%d", i), Spec: json.RawMessage(`{}`), Status: status, Cells: 1}
			if err := w.PutJob(j); err != nil {
				t.Fatalf("put: %v", err)
			}
		}
	}
	w.Close()
	f, err := os.OpenFile(filepath.Join(dir, walLog), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Write([]byte{0x30, 0, 0}) // a torn header
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}

	r := openTestWAL(t, dir)
	defer r.Close()
	want := WALStats{RecordsReplayed: 16, TruncatedBytes: 3, Superseded: 8, Compactions: 1}
	if st := r.Stats(); st != want {
		t.Fatalf("open reported %+v, want %+v", st, want)
	}
}

// recordsOf replays data and returns, in replay order, the index in
// want of each record it recovered; it fails if replay recovers a
// record that is not one of want's.
func recordsOf(t *testing.T, data []byte, want [][]byte) []int {
	t.Helper()
	var got []int
	replay(data, func(rec walRecord) {
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		i := slices.IndexFunc(want, func(w []byte) bool { return bytes.Equal(w, b) })
		if i < 0 {
			t.Fatalf("replay recovered a fact that was never written: %s", b)
		}
		got = append(got, i)
	})
	return got
}

// TestWALReplayDamage is the in-memory half of the recovery property:
// replay over a damaged log recovers a subset of the acknowledged
// records and never a different one. Every byte prefix of a three-record
// log recovers exactly the records whose frames it holds whole; a single
// flipped bit — every header bit, and a seeded sample of payload bits —
// loses at most the record whose frame it hits.
func TestWALReplayDamage(t *testing.T) {
	c1, c2 := testCell(1), testCell(2)
	job := JobRecord{ID: "j1", Spec: json.RawMessage(`{"ns":[16]}`), Status: StatusRunning, Cells: 2}
	var log []byte
	var payloads [][]byte
	var ends []int // ends[i] is the offset just past frame i
	for _, rec := range []walRecord{{Cell: &c1}, {Job: &job}, {Cell: &c2}} {
		frame := frameOf(t, rec)
		payloads = append(payloads, frame[walFrameHeader:])
		log = append(log, frame...)
		ends = append(ends, len(log))
	}

	for p := 0; p <= len(log); p++ {
		var want []int
		for i, end := range ends {
			if end <= p {
				want = append(want, i)
			}
		}
		if got := recordsOf(t, log[:p], payloads); !slices.Equal(got, want) {
			t.Fatalf("prefix of %d bytes recovered records %v, want %v", p, got, want)
		}
	}

	rng := des.NewRand(1)
	start := 0
	for hit, end := range ends {
		bits := make([]int, 0, 8*walFrameHeader+64)
		for b := range 8 * walFrameHeader {
			bits = append(bits, 8*start+b)
		}
		for range 64 {
			bits = append(bits, 8*(start+walFrameHeader)+rng.Intn(8*(end-start-walFrameHeader)))
		}
		for _, bit := range bits {
			damaged := bytes.Clone(log)
			damaged[bit/8] ^= 1 << (bit % 8)
			got := recordsOf(t, damaged, payloads)
			for i := range ends {
				if i != hit && !slices.Contains(got, i) {
					t.Fatalf("bit %d flipped in frame %d lost record %d (recovered %v)", bit, hit, i, got)
				}
			}
			if !slices.IsSorted(got) || len(slices.Compact(slices.Clone(got))) != len(got) {
				t.Fatalf("bit %d flipped in frame %d recovered records %v out of order", bit, hit, got)
			}
		}
		start = end
	}
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALMigratesLegacySegments opens a store written by the segmented
// WAL of earlier versions (testdata/legacy: four segments, a superseded
// job record and a torn tail on the last segment). It must serve the
// state that version served (testdata/legacy.state.json), fold the
// segments into one wal.log and remove them.
func TestWALMigratesLegacySegments(t *testing.T) {
	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "legacy"), dir)
	want, err := os.ReadFile(filepath.Join("testdata", "legacy.state.json"))
	if err != nil {
		t.Fatal(err)
	}
	w := openTestWAL(t, dir)
	if got := append(walState(t, w), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("migrated store serves\n%s\nwant\n%s", got, want)
	}
	if st := w.Stats(); st.RecordsReplayed != 6 || st.Superseded != 1 || st.TruncatedBytes == 0 || st.Compactions != 1 {
		t.Fatalf("migration reported %+v", st)
	}
	onlyLog(t, dir)
	w.Close()
	r := openTestWAL(t, dir)
	defer r.Close()
	if got := append(walState(t, r), '\n'); !bytes.Equal(got, want) {
		t.Fatalf("reopened migrated store serves\n%s\nwant\n%s", got, want)
	}
	if st := r.Stats(); st.Compactions != 0 {
		t.Fatalf("reopening a migrated store compacted again: %+v", st)
	}
}

// TestWALStaleSegmentBesideLog: a segment beside wal.log is what a crash
// between a migration's rename and its removals leaves. Its records are
// already in wal.log, so it is removed without being replayed over the
// newer records there.
func TestWALStaleSegmentBesideLog(t *testing.T) {
	dir := t.TempDir()
	job := JobRecord{ID: "j", Spec: json.RawMessage(`{}`), Status: StatusRunning, Cells: 1}
	seg := frameOf(t, walRecord{Job: &job})
	job.Status = StatusDone
	w := openTestWAL(t, dir)
	if err := w.PutJob(job); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000007.log"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	r := openTestWAL(t, dir)
	defer r.Close()
	if j, ok := r.GetJob("j"); !ok || j.Status != StatusDone {
		t.Fatalf("stale segment replayed over the log: %+v ok=%t", j, ok)
	}
	if st := r.Stats(); st != (WALStats{RecordsReplayed: 1}) {
		t.Fatalf("stale segment was read: %+v", st)
	}
	onlyLog(t, dir)
}

// TestWALIgnoresLeftoverTmp: wal.log.tmp is a compaction that crashed
// before its rename. It is never read, only removed.
func TestWALIgnoresLeftoverTmp(t *testing.T) {
	for _, withLog := range []bool{true, false} {
		dir := t.TempDir()
		c1, c2 := testCell(1), testCell(2)
		if withLog {
			w := openTestWAL(t, dir)
			if err := w.PutCell(c1); err != nil {
				t.Fatal(err)
			}
			w.Close()
		}
		if err := os.WriteFile(filepath.Join(dir, walTmp), frameOf(t, walRecord{Cell: &c2}), 0o644); err != nil {
			t.Fatal(err)
		}
		r := openTestWAL(t, dir)
		if _, ok := r.GetCell(c2.Key); ok {
			t.Fatalf("withLog=%t: a fact from wal.log.tmp is served", withLog)
		}
		if _, ok := r.GetCell(c1.Key); ok != withLog {
			t.Fatalf("withLog=%t: the log's own fact served=%t", withLog, ok)
		}
		onlyLog(t, dir)
		r.Close()
	}
}

// TestWALReadsDoNotWaitForWrites: reads are served from the index under
// its own lock, so GetCell, GetJob and Jobs return while a writer holds
// w.mu through its append and fsync; and a write applies to the index
// only after its fsync, so the reads see the facts written before it.
func TestWALReadsDoNotWaitForWrites(t *testing.T) {
	w := openTestWAL(t, t.TempDir())
	defer w.Close()
	c := testCell(1)
	job := JobRecord{ID: "j1", Spec: json.RawMessage(`{}`), Status: StatusRunning, Cells: 1}
	if err := w.PutCell(c); err != nil {
		t.Fatal(err)
	}
	if err := w.PutJob(job); err != nil {
		t.Fatal(err)
	}

	w.mu.Lock() // a writer mid-fsync
	read := make(chan bool)
	go func() {
		_, cell := w.GetCell(c.Key)
		_, j := w.GetJob(job.ID)
		read <- cell && j && len(w.Jobs()) == 1
	}()
	select {
	case ok := <-read:
		w.mu.Unlock()
		if !ok {
			t.Fatal("a read under a held write lock missed a stored fact")
		}
	case <-time.After(10 * time.Second):
		w.mu.Unlock()
		t.Fatal("GetCell waited for the write lock")
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
