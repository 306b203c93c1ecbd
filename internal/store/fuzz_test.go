package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
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

// FuzzWALReplay feeds arbitrary bytes to replay as a store's wal.log.
// Open must neither panic nor error, whatever it recovers; and what it
// recovered is then durable and clean: a reopen serves the same cells
// and jobs and finds nothing left to discard or compact.
func FuzzWALReplay(f *testing.F) {
	dir := f.TempDir()
	w, err := OpenWAL(dir, WALOptions{})
	if err != nil {
		f.Fatal(err)
	}
	job := JobRecord{ID: "j1", Spec: json.RawMessage(`{"ns": [16]}`), Status: StatusRunning, Cells: 2}
	for _, err := range []error{w.PutCell(testCell(1)), w.PutJob(job), w.PutCell(testCell(2)), w.PutCell(testCell(1))} {
		if err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(dir, walLog))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add(data[:len(data)-5])                               // torn tail
	f.Add(append(bytes.Clone(data[:40]), 0xff))             // corrupt first payload
	f.Add([]byte{})                                         // empty log
	f.Add([]byte{0x02, 0, 0, 0, 0, 0, 0, 0, '{', '}'})      // CRC mismatch
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2}) // absurd length
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
