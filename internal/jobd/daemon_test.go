package jobd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcs/internal/sim"
	"gcs/internal/simtest"
	"gcs/internal/store"
)

// fakeClock is a deterministic Clock: Now returns a fixed instant and
// After records the requested wait, then fires immediately — the
// daemon's temporal decisions become observable data.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	waits []time.Duration
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	c.waits = append(c.waits, d)
	now := c.now
	c.mu.Unlock()
	ch := make(chan time.Time, 1)
	ch <- now
	return ch
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) recorded() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.waits...)
}

// waitDone blocks until the job finishes or the test times out.
func waitDone(t *testing.T, d *Daemon, id string) {
	t.Helper()
	ch, ok := d.Done(id)
	if !ok {
		t.Fatalf("job %s unknown to the daemon", id)
	}
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish in time", id)
	}
}

// TestDaemonMatchesDirectSweep: a job run through the daemon produces
// bit-identical reports to sim.RunSweep over the same cells — the
// service is a scheduler, never a different simulator.
func TestDaemonMatchesDirectSweep(t *testing.T) {
	spec := SweepSpec{
		Ns:      []int{8, 12},
		Topos:   []string{"ring", "line"},
		Drivers: []string{"constant", "randomwalk"},
		Churns:  []string{"none"},
		Seed:    5,
		Horizon: 2,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunSweep(cells, 2)
	if err != nil {
		t.Fatal(err)
	}

	d, err := New(Config{Repo: store.NewMemory(), Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)
	view, created, err := d.Submit(spec)
	if err != nil || !created {
		t.Fatalf("submit: created=%t err=%v", created, err)
	}
	waitDone(t, d, view.ID)

	results, ok := d.Results(view.ID)
	if !ok || len(results) != len(cells) {
		t.Fatalf("results: ok=%t len=%d want %d", ok, len(results), len(cells))
	}
	for i, cv := range results {
		if !cv.Done || cv.Result == nil {
			t.Fatalf("cell %d (%s) not done", i, cv.Name)
		}
		if cv.Result.Failed() {
			t.Fatalf("cell %d failed: %s", i, cv.Result.Err)
		}
		simtest.AssertSameReport(t, "daemon vs direct "+cv.Name, cv.Result.Report, direct[i].Report)
	}
	if v, _ := d.Job(view.ID); v.Status != store.StatusDone || v.Done != len(cells) {
		t.Fatalf("job view after completion: %+v", v)
	}
}

// TestDaemonDedupeAcrossJobs: a second job whose grid overlaps a
// finished one is served the shared cells from the store — the
// simulator never runs the same physics twice.
func TestDaemonDedupeAcrossJobs(t *testing.T) {
	var runs atomic.Int32
	d, err := New(Config{
		Repo:    store.NewMemory(),
		Workers: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			runs.Add(1)
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)

	small := tinySpec() // 1 cell
	v1, _, err := d.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v1.ID)

	big := tinySpec() // same first cell, one more n
	big.Ns = []int{8, 12}
	v2, created, err := d.Submit(big)
	if err != nil || !created {
		t.Fatalf("submit big: created=%t err=%v", created, err)
	}
	waitDone(t, d, v2.ID)

	if v, _ := d.Job(v2.ID); v.Cached != 1 {
		t.Fatalf("overlapping cell not served from the store: %+v", v)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulator ran %d cells, want 2 (1 + 1 deduped)", got)
	}

	// Resubmitting an existing job is idempotent: same ID, no new work.
	v3, created, err := d.Submit(big)
	if err != nil || created || v3.ID != v2.ID {
		t.Fatalf("resubmit: view=%+v created=%t err=%v", v3, created, err)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("resubmission re-ran cells: %d runs", got)
	}
}

// TestDaemonShardsShareCells: the shard count is execution, so two
// specs that differ only in it have the same cell keys, and the second
// job is served wholly from the first one's facts.
func TestDaemonShardsShareCells(t *testing.T) {
	var runs atomic.Int32
	d, err := New(Config{
		Repo:    store.NewMemory(),
		Workers: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			runs.Add(1)
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)

	two := tinySpec()
	two.Ns, two.Churns, two.Parallel, two.Shards = []int{8, 12}, []string{"none", "rotatingstar"}, true, 2
	five := two
	five.Shards = 5
	a, err := two.Cells()
	if err != nil {
		t.Fatal(err)
	}
	b, err := five.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) < 4 {
		t.Fatalf("%d and %d cells, want one grid of at least 4", len(a), len(b))
	}
	for i := range a {
		if store.KeyOf(a[i].Cfg) != store.KeyOf(b[i].Cfg) {
			t.Fatalf("cell %d (%s): 2 and 5 shards have different keys", i, a[i].Name)
		}
	}
	v1, _, err := d.Submit(two)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v1.ID)
	v2, created, err := d.Submit(five)
	if err != nil || !created {
		t.Fatalf("submit 5 shards: created=%t err=%v", created, err)
	}
	waitDone(t, d, v2.ID)
	if v, _ := d.Job(v2.ID); v.Cached != len(a) || v.Done != len(a) {
		t.Fatalf("5-shard job not served from the 2-shard facts: %+v", v)
	}
	if got := runs.Load(); int(got) != len(a) {
		t.Fatalf("simulator ran %d cells, want %d (the second job fully cached)", got, len(a))
	}
}

// TestDaemonResumesShardsWithoutFloor pins the resume path for a job
// stored before shards needed a delay floor: a spec with shards and no
// parallel ran serially then. A new submission of it is rejected, but
// the stored job resumes under its own ID as its serial twin, whose
// facts it shares.
func TestDaemonResumesShardsWithoutFloor(t *testing.T) {
	repo := store.NewMemory()
	var runs atomic.Int32
	newDaemon := func() *Daemon {
		d, err := New(Config{
			Repo:    repo,
			Workers: 1,
			RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
				runs.Add(1)
				return a.RunSliced(cfg, slice, cont)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	serial := tinySpec()
	serial.Ns = []int{8, 12}
	legacy := serial
	legacy.Shards = 4

	d1 := newDaemon()
	if _, _, err := d1.Submit(legacy); err == nil || !strings.Contains(err.Error(), "sim: ") {
		t.Fatalf("submit shards without a floor: err=%v, want a sim: validation error", err)
	}
	v, _, err := d1.Submit(serial)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d1, v.ID)
	if err := d1.Drain(0); err != nil {
		t.Fatal(err)
	}
	specJSON, err := legacy.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	id, err := legacy.ID()
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.PutJob(store.JobRecord{ID: id, Spec: specJSON, Status: store.StatusRunning, Cells: 2}); err != nil {
		t.Fatal(err)
	}

	d2 := newDaemon()
	defer d2.Drain(0)
	if err := d2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d2, id)
	if got, _ := d2.Job(id); got.Done != 2 || got.Cached != 2 || got.Failed != 0 {
		t.Fatalf("resumed job %s: %+v, want both cells served from the serial facts", id, got)
	}
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulator ran %d cells, want 2 (the serial job only)", got)
	}
}

// TestDaemonCrashResume is the tentpole acceptance test at unit scale:
// interrupt a sweep partway (drain with zero grace abandons the
// in-flight cell, exactly like a crash — nothing unfinished is
// stored), reopen the same WAL directory with a fresh daemon, Resume,
// and the merged job must be bit-identical to an uninterrupted run
// while the already-stored cells never re-execute.
func TestDaemonCrashResume(t *testing.T) {
	spec := SweepSpec{
		Ns:      []int{8, 10, 12},
		Topos:   []string{"ring", "line"},
		Drivers: []string{"constant"},
		Churns:  []string{"none"},
		Seed:    9,
		Horizon: 2,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sim.RunSweep(cells, 1)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	wal1, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Hold the third and later executions mid-flight so the "crash"
	// reliably lands mid-sweep with some cells stored and some not.
	var ran atomic.Int32
	d1, err := New(Config{
		Repo:    wal1,
		Workers: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			if ran.Add(1) >= 3 {
				// Hold the cell mid-flight until the drain abandons it.
				for cont() {
					time.Sleep(time.Millisecond)
				}
				return sim.SkewReport{}, false
			}
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := d1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if v, _ := d1.Job(v1.ID); v.Done >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := d1.Drain(0); err != nil {
		t.Fatal(err)
	}
	if err := wal1.Close(); err != nil {
		t.Fatal(err)
	}

	wal2, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal2.Close()
	stored := 0
	for i := range cells {
		if _, ok := wal2.GetCell(store.KeyOf(cells[i].Cfg)); ok {
			stored++
		}
	}
	if stored == 0 || stored == len(cells) {
		t.Fatalf("crash landed at %d/%d stored cells; want a strict partial", stored, len(cells))
	}

	var reruns atomic.Int32
	d2, err := New(Config{
		Repo:    wal2,
		Workers: 2,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			reruns.Add(1)
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Drain(0)
	if err := d2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d2, v1.ID)

	results, ok := d2.Results(v1.ID)
	if !ok {
		t.Fatal("resumed job unknown")
	}
	for i, cv := range results {
		if !cv.Done || cv.Result == nil || cv.Result.Failed() {
			t.Fatalf("resumed cell %d (%s) not cleanly done", i, cv.Name)
		}
		simtest.AssertSameReport(t, "resumed vs uninterrupted "+cv.Name, cv.Result.Report, direct[i].Report)
	}
	if got, want := int(reruns.Load()), len(cells)-stored; got != want {
		t.Fatalf("resume re-ran %d cells, want exactly the %d missing ones", got, want)
	}
}

// logRecorder is a Config.Logf that keeps every line.
type logRecorder struct {
	mu    sync.Mutex
	lines []string
}

func (l *logRecorder) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logRecorder) all() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// TestDaemonPanicContainment: a panicking cell becomes a stored error
// fact holding the panic's value only, while its stack goes to Logf;
// sibling cells and the daemon itself are unharmed.
func TestDaemonPanicContainment(t *testing.T) {
	spec := tinySpec()
	spec.Ns = []int{8, 12}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	poisoned := cells[1].Cfg.Seed
	var log logRecorder
	d, err := New(Config{
		Repo:    store.NewMemory(),
		Workers: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			if cfg.Seed == poisoned {
				panic("poisoned cell")
			}
			return a.RunSliced(cfg, slice, cont)
		},
		Logf: log.logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)
	v, _, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v.ID)

	results, _ := d.Results(v.ID)
	if results[0].Result == nil || results[0].Result.Failed() {
		t.Fatal("healthy sibling cell was not completed cleanly")
	}
	bad := results[1].Result
	if bad == nil || !bad.Failed() {
		t.Fatal("panicking cell did not produce a terminal error fact")
	}
	if want := "jobd: cell panicked: poisoned cell"; bad.Err != want {
		t.Fatalf("panic fact %q, want %q", bad.Err, want)
	}
	lines := log.all()
	if len(lines) != 1 || !strings.Contains(lines[0], "poisoned cell") || !strings.Contains(lines[0], "goroutine") ||
		!strings.Contains(lines[0], store.KeyOf(cells[1].Cfg).String()) {
		t.Fatalf("Logf got %q, want one line with the cell's key, the panic and its stack", lines)
	}
	if view, _ := d.Job(v.ID); view.Status != store.StatusDone || view.Failed != 1 {
		t.Fatalf("job view after contained panic: %+v", view)
	}

	// The daemon survives: a fresh job still runs to completion.
	after := tinySpec()
	after.Seed = 99
	v2, _, err := d.Submit(after)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v2.ID)
}

// TestDaemonPanicFactIsPure: two fresh daemons that run the same
// panicking cell store byte-identical facts. Nothing of the process
// that ran it (goroutine ids, addresses, attempt counts) reaches the
// store.
func TestDaemonPanicFactIsPure(t *testing.T) {
	spec := tinySpec()
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	key := store.KeyOf(cells[0].Cfg)
	stored := make([][]byte, 2)
	for i, workers := range []int{1, 2} {
		repo := store.NewMemory()
		d, err := New(Config{
			Repo:       repo,
			Workers:    workers,
			MaxRetries: i,
			RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
				var counts map[int]int
				counts[cfg.N]++ // a runtime panic: assignment to entry in nil map
				return a.RunSliced(cfg, slice, cont)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := d.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, d, v.ID)
		if err := d.Drain(0); err != nil {
			t.Fatal(err)
		}
		fact, ok := repo.GetCell(key)
		if want := "jobd: cell panicked: assignment to entry in nil map"; !ok || fact.Err != want {
			t.Fatalf("daemon %d stored ok=%t %+v, want the error fact %q", i, ok, fact, want)
		}
		if stored[i], err = json.Marshal(fact); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(stored[0], stored[1]) {
		t.Fatalf("two daemons stored different facts for one cell:\n%s\n%s", stored[0], stored[1])
	}
}

// TestDaemonRetrySchedule: a cell that keeps failing is re-run at once,
// exactly MaxRetries times, without a wait on the clock, and ends as an
// error fact; once Drain has begun no retry starts, and the failed cell
// is left unstored for the next daemon.
func TestDaemonRetrySchedule(t *testing.T) {
	clock := newFakeClock()
	repo := store.NewMemory()
	var runs atomic.Int32
	d, err := New(Config{
		Repo:       repo,
		Clock:      clock,
		Workers:    1,
		MaxRetries: 3,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			runs.Add(1)
			panic("always failing")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	v, _, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v.ID)
	results, _ := d.Results(v.ID)
	if fact := results[0].Result; fact == nil || fact.Err != "jobd: cell panicked: always failing" {
		t.Fatalf("want the panic's error fact, got %+v", fact)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("cell ran %d times, want 4 (1 + MaxRetries)", got)
	}
	if waits := clock.recorded(); len(waits) != 0 {
		t.Fatalf("retries waited on the clock: %v", waits)
	}
	if err := d.Drain(0); err != nil {
		t.Fatal(err)
	}

	runs.Store(0)
	drained := make(chan error, 1)
	var dr *Daemon
	dr, err = New(Config{
		Repo:       repo,
		Clock:      clock,
		Workers:    1,
		MaxRetries: 3,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			runs.Add(1)
			go func() { drained <- dr.Drain(0) }()
			<-dr.stop
			panic("failing while the daemon drains")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	other := tinySpec()
	other.Seed = 8
	if _, _, err := dr.Submit(other); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("cell ran %d times after Drain began, want 1 (no retry)", got)
	}
	cells, _ := other.Cells()
	if res, ok := repo.GetCell(store.KeyOf(cells[0].Cfg)); ok {
		t.Fatalf("a cell interrupted by Drain was stored: %+v", res)
	}
}

// TestDaemonDeadlineIsNotAFact: a cell that outruns CellTimeout on
// every attempt fails its job but is not stored under the config's
// content address, so a later job over the same config runs the cell
// again instead of being served the timeout as a cached fact.
func TestDaemonDeadlineIsNotAFact(t *testing.T) {
	clock := newFakeClock()
	repo := store.NewMemory()
	var runs atomic.Int32
	d, err := New(Config{
		Repo:        repo,
		Clock:       clock,
		Workers:     1,
		CellTimeout: time.Minute,
		MaxRetries:  1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			if runs.Add(1) <= 2 {
				// Both attempts of the first job outrun the deadline:
				// after the clock moves, cont reports it passed.
				clock.advance(2 * time.Minute)
				return sim.SkewReport{}, cont()
			}
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)

	first := tinySpec()
	v1, _, err := d.Submit(first)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v1.ID)
	results, _ := d.Results(v1.ID)
	if r := results[0].Result; r == nil || !r.Failed() || !strings.Contains(r.Err, "deadline") || runs.Load() != 2 {
		t.Fatalf("want the job's cell failed on its deadline after 2 attempts (%d ran), got %+v", runs.Load(), r)
	}
	if v, _ := d.Job(v1.ID); v.Status != store.StatusDone || v.Failed != 1 {
		t.Fatalf("job view after a deadline: %+v", v)
	}
	cells, _ := first.Cells()
	key := store.KeyOf(cells[0].Cfg)
	if res, ok := repo.GetCell(key); ok {
		t.Fatalf("deadline stored as the config's fact: %+v", res)
	}

	// A later job over the same config runs the cell again.
	second := tinySpec()
	second.Ns = []int{8, 12}
	v2, _, err := d.Submit(second)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v2.ID)
	if v, _ := d.Job(v2.ID); v.Cached != 0 || v.Failed != 0 {
		t.Fatalf("resubmitted config served from the store or failed: %+v", v)
	}
	if got := runs.Load(); got != 4 {
		t.Fatalf("simulator ran %d times, want 4 (2 timed-out attempts + 2 cells)", got)
	}
	if res, ok := repo.GetCell(key); !ok || res.Failed() {
		t.Fatalf("rerun did not store a clean fact: ok=%t %+v", ok, res)
	}
}

// failingPuts is a Repository whose PutCell always fails.
type failingPuts struct{ *store.Memory }

func (failingPuts) PutCell(store.CellResult) error { return errors.New("disk full") }

// TestDaemonFailedPutServesResult: a result whose PutCell failed is
// logged and still served to its job from memory, so the job completes
// with the report; the cell is not a stored fact, so the next daemon
// over the repository runs it again.
func TestDaemonFailedPutServesResult(t *testing.T) {
	repo := store.NewMemory()
	var runs atomic.Int32
	var log logRecorder
	cfg := Config{
		Repo:    failingPuts{repo},
		Workers: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			runs.Add(1)
			return a.RunSliced(cfg, slice, cont)
		},
		Logf: log.logf,
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	spec := tinySpec()
	v, _, err := d.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v.ID)
	results, _ := d.Results(v.ID)
	if r := results[0].Result; !results[0].Done || r == nil || r.Failed() || r.Report.Samples == 0 {
		t.Fatalf("job not served the unstored result: %+v", results[0])
	}
	if lines := log.all(); len(lines) != 1 || !strings.Contains(lines[0], "disk full") {
		t.Fatalf("Logf got %q, want the failed put", lines)
	}
	if err := d.Drain(0); err != nil {
		t.Fatal(err)
	}
	cells, _ := spec.Cells()
	if res, ok := repo.GetCell(store.KeyOf(cells[0].Cfg)); ok {
		t.Fatalf("a failed put was stored: %+v", res)
	}

	cfg.Repo = repo
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Drain(0)
	if err := d2.Resume(); err != nil {
		t.Fatal(err)
	}
	waitDone(t, d2, v.ID)
	if got := runs.Load(); got != 2 {
		t.Fatalf("simulator ran %d times, want 2 (the next daemon re-runs the unstored cell)", got)
	}
	if _, ok := repo.GetCell(store.KeyOf(cells[0].Cfg)); !ok {
		t.Fatal("the re-run cell was not stored")
	}
}

// TestDaemonQueueCap: admissions that would exceed the queue cap are
// rejected with a retry hint instead of queuing unboundedly, and
// capacity freed by completion re-admits.
func TestDaemonQueueCap(t *testing.T) {
	gate := make(chan struct{})
	d, err := New(Config{
		Repo:     store.NewMemory(),
		Workers:  1,
		QueueCap: 1,
		RunCell: func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			<-gate
			return a.RunSliced(cfg, slice, cont)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Drain(0)

	first := tinySpec()
	if _, _, err := d.Submit(first); err != nil {
		t.Fatal(err)
	}
	second := tinySpec()
	second.Seed = 2
	_, _, err = d.Submit(second)
	var over *OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("over-cap submission got %v, want OverloadError", err)
	}
	if over.RetryAfter <= 0 {
		t.Fatalf("overload carries no retry hint: %+v", over)
	}

	close(gate)
	v1, _ := d.Job(mustID(t, first))
	waitDone(t, d, v1.ID)
	if _, _, err := d.Submit(second); err != nil {
		t.Fatalf("submission after capacity freed: %v", err)
	}
}

// TestDaemonDrain: drain stops admission and finishes in-flight work;
// a drained daemon rejects with ErrDraining.
func TestDaemonDrain(t *testing.T) {
	d, err := New(Config{Repo: store.NewMemory(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := d.Submit(tinySpec())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, d, v.ID)
	if err := d.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
	if !d.Draining() {
		t.Fatal("daemon does not report draining")
	}
	if _, _, err := d.Submit(tinySpec()); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission while draining got %v, want ErrDraining", err)
	}
	// Drain is idempotent.
	if err := d.Drain(time.Second); err != nil {
		t.Fatal(err)
	}
}

func mustID(t *testing.T, s SweepSpec) string {
	t.Helper()
	id, err := s.ID()
	if err != nil {
		t.Fatal(err)
	}
	return id
}
