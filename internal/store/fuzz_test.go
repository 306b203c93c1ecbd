package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// walState encodes what a WAL serves — every job and every cell fact,
// in key order — in its wire form, so two states compare as the JSON
// values they hold (a job's opaque Spec is compacted on every rewrite).
func walState(t *testing.T, w *WAL) []byte {
	t.Helper()
	cells := make([]CellResult, 0, len(w.cells))
	for _, c := range w.cells {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool { return string(cells[i].Key[:]) < string(cells[j].Key[:]) })
	b, err := json.Marshal(struct {
		Jobs  []JobRecord
		Cells []CellResult
	}{w.Jobs(), cells})
	if err != nil {
		t.Fatalf("encoding recovered state: %v", err)
	}
	return b
}

// addReplaySeeds adds the seeds of a replay fuzzer: each log, its torn
// tail and a corrupt first payload, then an empty log and bare frames
// with a bad CRC and an absurd length.
func addReplaySeeds(f *testing.F, logs ...[]byte) {
	for _, log := range logs {
		f.Add(log)
		f.Add(log[:len(log)-5])                    // torn tail
		f.Add(append(bytes.Clone(log[:40]), 0xff)) // corrupt first payload
	}
	f.Add([]byte{})                                         // empty log
	f.Add([]byte{0x02, 0, 0, 0, 0, 0, 0, 0, '{', '}'})      // CRC mismatch
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2}) // absurd length
}

// storeLog returns the log a store writes for a cell, a job, another
// cell and the first cell again.
func storeLog(f *testing.F) []byte {
	c1, c2 := testCell(1), testCell(2)
	job := JobRecord{ID: "j1", Spec: json.RawMessage(`{"ns": [16]}`), Status: StatusRunning, Cells: 2}
	var log []byte
	for _, rec := range []walRecord{{Cell: &c1}, {Job: &job}, {Cell: &c2}, {Cell: &c1}} {
		var err error
		if log, err = appendFrame(log, rec); err != nil {
			f.Fatal(err)
		}
	}
	return log
}

// shortLog frames hand-written records a few dozen bytes long: a job,
// its status rewrite, a cell that never re-converged and a failed cell
// from an earlier version that still carries an attempt count. A store's
// own records are over a kilobyte each, and the fuzzer's minimisation
// of an input that finds new coverage takes time cubic in its length,
// so short seeds keep the inputs it mutates, and minimises, short.
func shortLog() []byte {
	key := strings.Repeat("ab", len(Key{}))
	var log []byte
	for _, payload := range []string{
		`{"job":{"id":"j1","spec":{"ns":[16]},"status":"running","cells":2}}`,
		`{"cell":{"key":"` + key + `","cfg":{"N":16,"Seed":1},"report":{"MaxGlobalSkew":0.5},"reconvergence_never":true}}`,
		`{"cell":{"key":"` + key[2:] + `cd","err":"jobd: cell panicked: x","attempts":2}}`,
		`{"job":{"id":"j1","spec":{"ns":[16]},"status":"done","cells":2}}`,
	} {
		log = binary.LittleEndian.AppendUint32(log, uint32(len(payload)))
		log = binary.LittleEndian.AppendUint32(log, crc32.Checksum([]byte(payload), walCRC))
		log = append(log, payload...)
	}
	return log
}

// FuzzReplay feeds arbitrary bytes to replay in memory, with no files.
// It must not panic. Every input byte is skipped or inside a frame it
// applied, and no valid frame starts at a skipped byte. Re-framing the
// applied records replays them unchanged, with nothing skipped.
func FuzzReplay(f *testing.F) {
	addReplaySeeds(f, shortLog())
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []walRecord
		n, skipped := replay(data, func(rec walRecord) { recs = append(recs, rec) })
		if n != len(recs) {
			t.Fatalf("replay reported %d records and applied %d", n, len(recs))
		}
		var walked int64
		next := 0
		for off := 0; off < len(data); {
			rec, size, ok := decodeFrame(data[off:])
			if !ok {
				walked++
				off++
				continue
			}
			if next == len(recs) || !reflect.DeepEqual(rec, recs[next]) {
				t.Fatalf("the valid frame at byte %d is not applied record %d", off, next)
			}
			next++
			off += size
		}
		if next != len(recs) || walked != skipped {
			t.Fatalf("replay applied %d records and skipped %d bytes; the input holds %d frames and %d other bytes",
				len(recs), skipped, next, walked)
		}

		var framed []byte
		for _, rec := range recs {
			var err error
			if framed, err = appendFrame(framed, rec); err != nil {
				t.Fatalf("re-framing an applied record: %v", err)
			}
		}
		var again []walRecord
		if _, skipped := replay(framed, func(rec walRecord) { again = append(again, rec) }); skipped != 0 {
			t.Fatalf("re-framed records replay with %d bytes skipped", skipped)
		}
		// Compare the wire forms: a job's opaque Spec is compacted when
		// it is framed again.
		want, err := json.Marshal(recs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-framed records replay as\n%s\nwant\n%s", got, want)
		}
	})
}

// FuzzWALReplay feeds arbitrary bytes to OpenWAL as a store's wal.log.
// Open must neither panic nor error, whatever it recovers; and what it
// recovered is then durable and clean: a reopen serves the same cells
// and jobs and finds nothing left to discard or compact. Each input
// costs a store's directory and fsyncs, so it runs far fewer inputs
// than FuzzReplay.
func FuzzWALReplay(f *testing.F) {
	addReplaySeeds(f, storeLog(f), shortLog())
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walLog), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("OpenWAL: %v", err)
		}
		first := walState(t, w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenWAL(dir, WALOptions{})
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer r.Close()
		if again := walState(t, r); !bytes.Equal(first, again) {
			t.Fatalf("reopen serves a different state:\n first %s\n again %s", first, again)
		}
		if st := r.Stats(); st.TruncatedBytes != 0 || st.Superseded != 0 || st.Compactions != 0 {
			t.Fatalf("reopen found more to recover: %+v", st)
		}
	})
}
