package main

import (
	"bytes"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"gcs/internal/jobd"
	"gcs/internal/sim"
	"gcs/internal/store"
)

// TestSweepViaDaemon runs the golden sweep row through `gcsim sweep
// -daemon URL` against an in-process jobd.Daemon over a fresh WAL: the
// artifacts must equal the committed golden byte for byte. A second run,
// against a new daemon reopened over the same WAL, must be served from
// the store without running a cell.
func TestSweepViaDaemon(t *testing.T) {
	row := cliRows[slices.IndexFunc(cliRows, func(r cliRow) bool { return r.name == "sweep" })]
	dir := t.TempDir()
	var runs atomic.Int64
	for round, wantRuns := range []int64{2, 2} {
		wal, err := store.OpenWAL(dir, store.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		d, err := jobd.New(jobd.Config{Repo: wal, Workers: 2,
			RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
				runs.Add(1)
				return a.RunSliced(cfg, slice, cont)
			}})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(d.Handler())
		out := t.TempDir()
		cmd := exec.Command(os.Args[0], append(append([]string{"gcsim"}, row.args...), "-daemon", srv.URL, "-out", out)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		stdout, err := cmd.Output()
		srv.Close()
		if derr := d.Drain(0); derr != nil {
			t.Fatal(derr)
		}
		if cerr := wal.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("round %d: gcsim %v -daemon: %v\n%s%s", round, row.args, err, stdout, stderr.String())
		}
		for _, name := range row.artifacts {
			got, err := os.ReadFile(filepath.Join(out, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", row.name, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("round %d: %s differs from the committed golden at line %d", round, name, firstDiffLine(got, want))
			}
		}
		if n := runs.Load(); n != wantRuns {
			t.Errorf("round %d: %d cell runs in all, want %d", round, n, wantRuns)
		}
	}
}
