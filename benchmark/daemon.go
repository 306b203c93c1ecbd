package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gcs/internal/jobd"
	"gcs/internal/sim"
	"gcs/internal/store"
)

// daemonLoad drives an in-process jobd.Daemon over a WAL in a fresh
// directory: no HTTP and no sockets, because what is measured is
// submit -> durable fact, not the loopback interface. One closed-loop
// client submits the jobs in turn, waits for each to finish and fetches
// its results — exactly what `gcsim sweep -daemon` does — so a slow
// daemon receives less load, not a growing queue.
type daemonLoad struct {
	specs   []jobd.SweepSpec
	workers int
	workdir string
	dirs    int
	// last is the resumed daemon the latest rep left running over its
	// reopened WAL: the state whose live heap is reported.
	last *resumed
}

type resumed struct {
	dm  *jobd.Daemon
	wal *store.WAL
	dir string
}

// close shuts the latest rep's resumed daemon down and removes its
// directory.
func (d *daemonLoad) close() error {
	r := d.last
	if r == nil {
		return nil
	}
	d.last = nil
	defer os.RemoveAll(r.dir)
	if err := r.dm.Drain(drainGrace); err != nil {
		r.wal.Close()
		return err
	}
	return r.wal.Close()
}

func (d *daemonLoad) allCells() []sim.SweepCell {
	var all []sim.SweepCell
	for _, s := range d.specs {
		cells, err := s.Cells()
		if err != nil {
			panic(err) // the specs are constants of this package
		}
		all = append(all, cells...)
	}
	return all
}

func (d *daemonLoad) freshDir() (string, error) {
	d.dirs++
	dir := filepath.Join(d.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), d.dirs))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

const drainGrace = 10 * time.Second

// setup is the daemon's cold start on an empty directory.
func (d *daemonLoad) setup() (float64, error) {
	dir, err := d.freshDir()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	t0 := time.Now()
	wal, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return 0, err
	}
	dm, err := jobd.New(jobd.Config{Repo: wal, Workers: d.workers})
	secs := time.Since(t0).Seconds()
	if err != nil {
		wal.Close()
		return 0, err
	}
	if err := dm.Drain(drainGrace); err != nil {
		wal.Close()
		return 0, err
	}
	return secs, wal.Close()
}

func (d *daemonLoad) rep(tr *tracer) repResult {
	var res repResult
	fail := func(format string, args ...any) repResult {
		res.errs = append(res.errs, fmt.Sprintf(format, args...))
		return res
	}
	if err := d.close(); err != nil {
		return fail("close previous rep: %v", err)
	}
	dir, err := d.freshDir()
	if err != nil {
		return fail("workdir: %v", err)
	}
	root := tr.nextRep()
	defer tr.end(root)
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(dir)
		}
	}()

	// Write path: every cell is executed and its fact made durable.
	wal, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return fail("open WAL: %v", err)
	}
	var logged logSink
	cfg := jobd.Config{Repo: wal, Workers: d.workers, Logf: logged.logf}
	var hooks *cellHooks
	if tr != nil {
		cfg.Repo = &timedRepo{Repository: wal, tr: tr, parent: root}
		hooks = &cellHooks{tr: tr, parent: root, aggs: map[*sim.Arena]*kindAgg{}}
		cfg.RunCell = hooks.runCell
	}
	dm, err := jobd.New(cfg)
	if err != nil {
		wal.Close()
		return fail("start daemon: %v", err)
	}
	sweepSpan := tr.begin("jobd.sweep", root)
	t0 := time.Now()
	for j, spec := range d.specs {
		cells, views, err := submitAndWait(dm, spec, tr, sweepSpan)
		if err != nil {
			// A refused submit fails every cell the job would have run.
			res.errs = append(res.errs, fmt.Sprintf("job %d: %v", j, err))
		}
		// A cell without a stored report keeps its place as a zero report,
		// which fails its own check.
		for i := range cells {
			var rpt sim.SkewReport
			if i < len(views) && views[i].Result != nil && !views[i].Result.Failed() {
				rpt = views[i].Result.Report
			}
			res.cfgs = append(res.cfgs, cells[i].Cfg)
			res.reports = append(res.reports, rpt)
		}
	}
	res.wall = time.Since(t0).Seconds()
	tr.end(sweepSpan)
	if err := dm.Drain(drainGrace); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("drain: %v", err))
	}
	hooks.finish()
	if err := wal.Close(); err != nil {
		res.errs = append(res.errs, fmt.Sprintf("close WAL: %v", err))
	}
	res.errs = append(res.errs, logged.lines()...)
	if tr != nil {
		tr.setWALBytes(dirBytes(dir))
	}

	// Read path: a fresh daemon over the reopened WAL must serve every
	// cell from the store without executing anything.
	id := tr.begin("store.open_replay", root)
	wal2, err := store.OpenWAL(dir, store.WALOptions{})
	tr.end(id)
	if err != nil {
		return fail("reopen WAL: %v", err)
	}
	dm2, err := jobd.New(jobd.Config{Repo: wal2, Workers: d.workers})
	if err != nil {
		wal2.Close()
		return fail("restart daemon: %v", err)
	}
	d.last, keep = &resumed{dm: dm2, wal: wal2, dir: dir}, true
	id = tr.begin("jobd.resume", root)
	err = dm2.Resume()
	tr.end(id)
	if err != nil {
		res.errs = append(res.errs, fmt.Sprintf("resume: %v", err))
	}
	res.errs = append(res.errs, checkResumed(dm2.Jobs(), len(d.specs), len(res.reports))...)
	return res
}

// submitAndWait is one turn of the closed loop: submit, wait for the
// last cell, fetch the results.
func submitAndWait(dm *jobd.Daemon, spec jobd.SweepSpec, tr *tracer, parent int) ([]sim.SweepCell, []jobd.CellView, error) {
	job := tr.begin("jobd.job", parent)
	defer tr.end(job)
	cells, err := spec.Cells()
	if err != nil {
		return nil, nil, err
	}
	id := tr.begin("jobd.submit", job)
	view, _, err := dm.Submit(spec)
	tr.end(id)
	if err != nil {
		return cells, nil, err
	}
	done, ok := dm.Done(view.ID)
	if !ok {
		return cells, nil, fmt.Errorf("job %s vanished after submit", view.ID)
	}
	<-done
	id = tr.begin("jobd.results", job)
	views, _ := dm.Results(view.ID)
	tr.end(id)
	if len(views) != len(cells) {
		return cells, nil, fmt.Errorf("job %s returned %d results for %d cells", view.ID, len(views), len(cells))
	}
	return cells, views, nil
}

// checkResumed verifies the read path: every stored job is back, done,
// and made of cached cells only — zero re-executions.
func checkResumed(jobs []jobd.JobView, wantJobs, wantCells int) []string {
	var errs []string
	if len(jobs) != wantJobs {
		errs = append(errs, fmt.Sprintf("resumed daemon has %d jobs, want %d", len(jobs), wantJobs))
	}
	cached := 0
	for _, j := range jobs {
		if j.Status != store.StatusDone || j.Cached != j.Cells {
			errs = append(errs, fmt.Sprintf("resumed job %s: status %s, %d of %d cells cached", j.ID, j.Status, j.Cached, j.Cells))
		}
		cached += j.Cached
	}
	if cached != wantCells {
		errs = append(errs, fmt.Sprintf("resumed daemon serves %d cached cells, want %d", cached, wantCells))
	}
	return errs
}

// verify checks the service against the library: job 0's stored facts
// must equal sim.RunSweep of the same cells, cell for cell.
func (d *daemonLoad) verify(ref repResult, t *tally) float64 {
	cells, err := d.specs[0].Cells()
	if err != nil {
		t.op(err.Error())
		return 0
	}
	out, err := sim.RunSweep(cells, d.workers)
	if err != nil {
		t.op(err.Error())
		return 0
	}
	want := make([]sim.SkewReport, len(out))
	for i := range out {
		want[i] = out[i].Report
	}
	got := ref.reports
	if len(got) > len(want) {
		got = got[:len(want)]
	}
	t.op(diffReports("daemon job 0 vs RunSweep", got, want)...)
	return 0
}

// logSink collects what the daemon reports through Logf — persistence
// failures — so they fail the rep instead of scrolling past.
type logSink struct {
	mu  sync.Mutex
	out []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	l.out = append(l.out, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logSink) lines() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.out
}

func dirBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			n += info.Size()
		}
	}
	return n
}

// timedRepo is the timing decorator around a store.Repository: every
// call passes through unchanged and leaves a span behind.
type timedRepo struct {
	store.Repository
	tr     *tracer
	parent int
}

func (r *timedRepo) PutCell(c store.CellResult) error {
	defer r.tr.end(r.tr.begin("store.put_cell", r.parent))
	return r.Repository.PutCell(c)
}

func (r *timedRepo) GetCell(k store.Key) (store.CellResult, bool) {
	defer r.tr.end(r.tr.begin("store.get_cell", r.parent))
	return r.Repository.GetCell(k)
}

func (r *timedRepo) PutJob(j store.JobRecord) error {
	defer r.tr.end(r.tr.begin("store.put_job", r.parent))
	return r.Repository.PutJob(j)
}

func (r *timedRepo) Sync() error {
	defer r.tr.end(r.tr.begin("store.sync", r.parent))
	return r.Repository.Sync()
}

// cellHooks is the traced jobd.Config.RunCell: the default execution
// (Arena.RunSliced) inside a span, with a kind-span hook on each
// worker's engine. A worker's arena is recognised by its pointer; the
// hook is installed the first time the arena is seen and survives the
// rewires after it.
type cellHooks struct {
	tr     *tracer
	parent int
	mu     sync.Mutex
	aggs   map[*sim.Arena]*kindAgg
}

func (h *cellHooks) runCell(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
	h.mu.Lock()
	agg := h.aggs[a]
	if agg == nil && !cfg.Parallel {
		en := a.Sim(cfg).Engine
		agg = newKindAgg(en, true)
		en.SetTraceHook(agg.hook)
		h.aggs[a] = agg
	}
	h.mu.Unlock()
	id := h.tr.begin("sim.run", h.parent)
	rpt, ok := a.RunSliced(cfg, slice, cont)
	if agg != nil {
		agg.flush()
	}
	h.tr.end(id)
	return rpt, ok
}

// finish removes the hooks and folds the workers' totals into the trace;
// call it once the daemon has drained. A nil receiver (tracing off) does
// nothing.
func (h *cellHooks) finish() {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, agg := range h.aggs {
		agg.en.SetTraceHook(nil)
		h.tr.merge(&agg.kindTotals)
	}
}
