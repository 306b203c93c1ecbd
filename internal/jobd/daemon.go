package jobd

import (
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/sim"
	"gcs/internal/store"
)

// ErrDraining rejects submissions once Drain has started: the daemon
// is finishing its in-flight cells and will not admit new work.
var ErrDraining = errors.New("jobd: daemon is draining")

// OverloadError rejects a submission that would push the queue past
// its cap; RetryAfter is the daemon's estimate of when capacity frees.
type OverloadError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("jobd: queue is full; retry after %s", e.RetryAfter)
}

// errAbandoned marks a cell given up mid-run because the drain grace
// expired; the cell is left unfinished for the next daemon to resume.
var errAbandoned = errors.New("jobd: cell abandoned by drain")

// errDeadline marks a cell that outran CellTimeout. The deadline is a
// property of this daemon and its host, not of the config, so a cell
// that ends on it fails its jobs without becoming a stored fact.
var errDeadline = errors.New("jobd: cell exceeded its deadline")

// Config configures a Daemon. Repo is required; everything else has a
// usable default.
type Config struct {
	// Repo persists cell facts and job records. The daemon does not own
	// it: the caller closes it after Drain returns.
	Repo store.Repository
	// Clock injects wall time; nil means RealClock.
	Clock Clock
	// Workers is the cell worker pool size; <=0 means GOMAXPROCS.
	Workers int
	// QueueCap bounds cells admitted but not yet finished; an admission
	// that would exceed it fails with OverloadError. <=0 means 4096.
	QueueCap int
	// CellTimeout is the per-cell execution deadline, checked between
	// simulation slices. <=0 means 10 minutes.
	CellTimeout time.Duration
	// MaxRetries is how many times a failed cell is re-executed, at
	// once and never after Drain has begun; negative normalizes to 0. A
	// cell is a pure function of its config, so a retry can change only
	// the arena (a panic replaces it) or the host's load. A cell that
	// fails every attempt is stored as a terminal error fact — unless the
	// last attempt outran CellTimeout: that fails the waiting jobs but
	// stores nothing, so a later job runs the cell again.
	MaxRetries int
	// RunCell executes one cell; nil means Arena.RunSliced. Tests inject
	// hooks here to fail, panic, or block specific cells.
	RunCell func(a *sim.Arena, cfg sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool)
	// Logf reports non-fatal internal errors (persistence failures) and
	// the stacks of contained panics; nil discards them.
	Logf func(format string, args ...any)
}

// task is one unit of worker input: a cell awaiting execution.
type task struct {
	key store.Key
	cfg sim.Config
}

// cellRef points at one cell slot of one job; the interest map fans a
// finished cell's fact out to every job waiting on it.
type cellRef struct {
	j   *job
	idx int
}

// job is the in-memory state of one admitted job.
type job struct {
	rec       store.JobRecord
	cells     []sim.SweepCell
	keys      []store.Key
	done      []bool
	remaining int
	cached    int
	failed    int
	doneCh    chan struct{}
	// local holds, by cell index, the results this job got without a
	// stored fact: a deadline, or a result whose PutCell failed.
	local map[int]store.CellResult
}

func (j *job) view() JobView {
	return JobView{
		ID:     j.rec.ID,
		Status: j.rec.Status,
		Cells:  j.rec.Cells,
		Done:   j.rec.Cells - j.remaining,
		Failed: j.failed,
		Cached: j.cached,
	}
}

// JobView is a job's observable state.
type JobView struct {
	ID     string          `json:"id"`
	Status store.JobStatus `json:"status"`
	Cells  int             `json:"cells"`
	// Done counts finished cells (including cached ones); Failed counts
	// those that ended in a terminal error; Cached counts
	// cells served from the store at admission without running.
	Done   int `json:"done"`
	Failed int `json:"failed"`
	Cached int `json:"cached"`
}

// CellView is one cell's observable state; Result is nil until the
// cell finishes.
type CellView struct {
	Index  int               `json:"index"`
	Name   string            `json:"name"`
	Done   bool              `json:"done"`
	Result *store.CellResult `json:"result,omitempty"`
}

// Daemon schedules sweep cells across a worker pool, persisting every
// outcome through its repository. All exported methods are safe for
// concurrent use.
type Daemon struct {
	cfg   Config
	repo  store.Repository
	clock Clock

	queue   chan task
	stop    chan struct{}
	abandon atomic.Bool
	wg      sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	interest map[store.Key][]cellRef
	queued   int // cells enqueued or running; bounded by QueueCap
	draining bool
}

// New starts a daemon: its workers are running on return.
func New(cfg Config) (*Daemon, error) {
	if cfg.Repo == nil {
		return nil, errors.New("jobd: Config.Repo is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	cfg.Workers = sim.WorkerCount(cfg.Workers)
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 4096
	}
	if cfg.CellTimeout <= 0 {
		cfg.CellTimeout = 10 * time.Minute
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	}
	if cfg.RunCell == nil {
		cfg.RunCell = func(a *sim.Arena, c sim.Config, slice float64, cont func() bool) (sim.SkewReport, bool) {
			return a.RunSliced(c, slice, cont)
		}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	d := &Daemon{
		cfg:      cfg,
		repo:     cfg.Repo,
		clock:    cfg.Clock,
		queue:    make(chan task, cfg.QueueCap),
		stop:     make(chan struct{}),
		jobs:     map[string]*job{},
		interest: map[store.Key][]cellRef{},
	}
	for i := 0; i < cfg.Workers; i++ {
		d.wg.Add(1)
		go d.worker()
	}
	return d, nil
}

// Submit admits one sweep job. It is idempotent on the spec: the same
// spec maps to the same job ID, and resubmitting returns the existing
// job with created=false. Cells whose facts are already stored are
// served from the store; cells another job is already running are
// joined, not re-enqueued.
func (d *Daemon) Submit(spec SweepSpec) (JobView, bool, error) { return d.admit(spec, false) }

// admit is Submit; resumed marks a job read back from the repository.
func (d *Daemon) admit(spec SweepSpec, resumed bool) (JobView, bool, error) {
	run := spec
	if resumed && !spec.Parallel {
		run.Shards = 0 // stored before shards needed a delay floor: it ran serially
	}
	// A bad spec is rejected whole at admission, naming every invalid
	// cell, instead of failing cell by cell.
	cells, err := run.Cells()
	if err == nil {
		err = sim.ValidateCells(cells)
	}
	if err != nil {
		return JobView{}, false, err
	}
	specJSON, err := spec.CanonicalJSON()
	if err != nil {
		return JobView{}, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return JobView{}, false, err
	}
	keys := make([]store.Key, len(cells))
	for i := range cells {
		keys[i] = store.KeyOf(cells[i].Cfg)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.draining {
		return JobView{}, false, ErrDraining
	}
	if j, ok := d.jobs[id]; ok {
		return j.view(), false, nil
	}
	// Admission is all-or-nothing: count the cells that would newly
	// enqueue before touching any state.
	need := 0
	seen := map[store.Key]bool{}
	for _, k := range keys {
		if seen[k] {
			continue
		}
		seen[k] = true
		if _, ok := d.interest[k]; ok {
			continue
		}
		if _, ok := d.repo.GetCell(k); ok {
			continue
		}
		need++
	}
	if d.queued+need > d.cfg.QueueCap {
		return JobView{}, false, &OverloadError{RetryAfter: d.retryAfterLocked()}
	}

	j := &job{
		rec:       store.JobRecord{ID: id, Spec: specJSON, Status: store.StatusRunning, Cells: len(cells)},
		cells:     cells,
		keys:      keys,
		done:      make([]bool, len(cells)),
		remaining: len(cells),
		doneCh:    make(chan struct{}),
		local:     map[int]store.CellResult{},
	}
	for i := range cells {
		k := keys[i]
		if res, ok := d.repo.GetCell(k); ok {
			j.done[i] = true
			j.remaining--
			j.cached++
			if res.Failed() {
				j.failed++
			}
			continue
		}
		first := len(d.interest[k]) == 0
		d.interest[k] = append(d.interest[k], cellRef{j: j, idx: i})
		if first {
			// Never blocks: queue capacity is QueueCap and channel
			// occupancy never exceeds d.queued, which we just bounded.
			d.queued++
			d.queue <- task{key: k, cfg: cells[i].Cfg}
		}
	}
	if j.remaining == 0 {
		j.rec.Status = store.StatusDone
		close(j.doneCh)
	}
	d.jobs[id] = j
	if err := d.repo.PutJob(j.rec); err != nil {
		d.cfg.Logf("jobd: persist job %s: %v", id, err)
	}
	return j.view(), true, nil
}

// Resume re-admits every job in the repository. Jobs whose cells are
// all stored complete immediately from cache; unfinished jobs
// re-enqueue exactly their missing cells. Call it once, before serving
// traffic. The returned error joins per-job failures; jobs that do
// resume are unaffected by siblings that don't.
func (d *Daemon) Resume() error {
	var errs []error
	for _, rec := range d.repo.Jobs() {
		spec, err := DecodeSpec(rec.Spec)
		if err != nil {
			errs = append(errs, fmt.Errorf("jobd: resume job %s: %w", rec.ID, err))
			continue
		}
		if _, _, err := d.admit(spec, true); err != nil {
			errs = append(errs, fmt.Errorf("jobd: resume job %s: %w", rec.ID, err))
		}
	}
	return errors.Join(errs...)
}

// Job returns one job's observable state.
func (d *Daemon) Job(id string) (JobView, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// Jobs lists every admitted job, sorted by ID.
func (d *Daemon) Jobs() []JobView {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]JobView, 0, len(d.jobs))
	//gcslint:allow maprange — sorted below before surfacing.
	for _, j := range d.jobs {
		out = append(out, j.view())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// Done returns a channel closed when the job's last cell finishes
// (already closed for completed jobs).
func (d *Daemon) Done(id string) (<-chan struct{}, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.jobs[id]
	if !ok {
		return nil, false
	}
	return j.doneCh, true
}

// Results returns the job's cells in grid order, with stored facts
// attached to the finished ones. Partial jobs return partial results.
func (d *Daemon) Results(id string) ([]CellView, bool) {
	d.mu.Lock()
	j, ok := d.jobs[id]
	if !ok {
		d.mu.Unlock()
		return nil, false
	}
	cells, keys := j.cells, j.keys
	done := append([]bool(nil), j.done...)
	local := maps.Clone(j.local)
	d.mu.Unlock()

	out := make([]CellView, len(cells))
	for i := range cells {
		out[i] = CellView{Index: i, Name: cells[i].Name, Done: done[i]}
		if done[i] {
			res, ok := local[i]
			if !ok {
				res, ok = d.repo.GetCell(keys[i])
			}
			if ok {
				out[i].Result = &res
			}
		}
	}
	return out, true
}

// Drain stops admission, lets workers finish their current cells, and
// after the grace period abandons whatever is still running (the slice
// seam makes even a mid-simulation cell yield). Unfinished cells stay
// unstored, so the next daemon over the same repository resumes them.
// Drain syncs the repository before returning; it does not close it.
func (d *Daemon) Drain(grace time.Duration) error {
	d.mu.Lock()
	already := d.draining
	d.draining = true
	d.mu.Unlock()
	if !already {
		close(d.stop)
	}
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	if grace > 0 {
		select {
		case <-done:
			return d.repo.Sync()
		case <-d.clock.After(grace):
		}
	}
	d.abandon.Store(true)
	<-done
	return d.repo.Sync()
}

// Draining reports whether Drain has started.
func (d *Daemon) Draining() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.draining
}

// retryAfterLocked estimates when queue capacity frees: a rough
// one-second-per-queued-cell-per-worker heuristic, capped at 5 minutes.
func (d *Daemon) retryAfterLocked() time.Duration {
	secs := 1 + d.queued/d.cfg.Workers
	if secs > 300 {
		secs = 300
	}
	return time.Duration(secs) * time.Second
}

// worker owns one arena and drains the task queue until stopped.
func (d *Daemon) worker() {
	defer d.wg.Done()
	a := sim.NewArena()
	for {
		select {
		case <-d.stop:
			return
		default:
		}
		select {
		case <-d.stop:
			return
		case t := <-d.queue:
			d.runTask(&a, t)
		}
	}
}

// runTask executes one cell to a terminal fact — report or error —
// re-running it at once after a failure, then fans the fact out to
// every interested job. The arena is passed by pointer so panic
// containment can replace a possibly-corrupt arena with a fresh one.
func (d *Daemon) runTask(a **sim.Arena, t task) {
	// The fact may have landed (another daemon, an earlier job) between
	// enqueue and now; serve it without running.
	if res, ok := d.repo.GetCell(t.key); ok {
		d.complete(t.key, res, true)
		return
	}
	cfg := t.cfg.WithDefaults()
	for retry := 0; ; retry++ {
		rpt, err := d.execCell(a, t.key, cfg)
		if errors.Is(err, errAbandoned) {
			return // draining: leave the cell unfinished for resume
		}
		if err == nil {
			d.finish(store.CellResult{Key: t.key, Cfg: cfg, Report: rpt})
			return
		}
		if retry == d.cfg.MaxRetries {
			res := store.CellResult{Key: t.key, Cfg: cfg, Err: err.Error()}
			if errors.Is(err, errDeadline) {
				// Storing it would serve this host's timeout as the
				// config's outcome forever; only the waiting jobs fail.
				d.complete(t.key, res, false)
			} else {
				// Any other terminal failure is still a fact:
				// deterministic cells fail deterministically (a
				// validation error, a contained panic), so caching the
				// error is as sound as caching a report.
				d.finish(res)
			}
			return
		}
		select {
		case <-d.stop:
			return // draining: start no retry, leave the cell for resume
		default:
		}
	}
}

// cellSlice is the simulated-seconds granularity at which a running
// cell checks its deadline and the drain flag.
const cellSlice = 1.0

// execCell runs one attempt under the cell deadline, containing panics
// so a poisoned cell cannot take the daemon down. A panic's error holds
// its value only; the stack, which names goroutines and addresses of
// this process, goes to Logf.
func (d *Daemon) execCell(a **sim.Arena, k store.Key, cfg sim.Config) (rpt sim.SkewReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			// The arena may be mid-run; replace it rather than reuse it.
			*a = sim.NewArena()
			err = fmt.Errorf("jobd: cell panicked: %v", r)
			d.cfg.Logf("jobd: cell %s panicked: %v\n%s", k, r, debug.Stack())
		}
	}()
	deadline := d.clock.Now().Add(d.cfg.CellTimeout)
	cont := func() bool {
		if d.abandon.Load() {
			return false
		}
		return d.clock.Now().Before(deadline)
	}
	rpt, ok := d.cfg.RunCell(*a, cfg, cellSlice, cont)
	if !ok {
		if d.abandon.Load() {
			return sim.SkewReport{}, errAbandoned
		}
		return sim.SkewReport{}, fmt.Errorf("%w (%s)", errDeadline, d.cfg.CellTimeout)
	}
	return rpt, nil
}

// finish persists the fact and fans it out. A persistence failure is
// logged, and the waiting jobs keep the result in memory: only this
// cell's durability is lost (the next daemon re-runs it).
func (d *Daemon) finish(res store.CellResult) {
	err := d.repo.PutCell(res)
	if err != nil {
		d.cfg.Logf("jobd: persist cell %s: %v", res.Key, err)
	}
	d.complete(res.Key, res, err == nil)
}

// complete marks the cell done in every interested job, closing and
// persisting jobs whose last cell this was. A result that is not a
// stored fact (stored=false) is kept by each job for its Results.
func (d *Daemon) complete(k store.Key, res store.CellResult, stored bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.queued--
	refs := d.interest[k]
	delete(d.interest, k)
	for _, r := range refs {
		if r.j.done[r.idx] {
			continue
		}
		r.j.done[r.idx] = true
		r.j.remaining--
		if res.Failed() {
			r.j.failed++
		}
		if !stored {
			r.j.local[r.idx] = res
		}
		if r.j.remaining == 0 {
			r.j.rec.Status = store.StatusDone
			if err := d.repo.PutJob(r.j.rec); err != nil {
				d.cfg.Logf("jobd: persist job %s: %v", r.j.rec.ID, err)
			}
			close(r.j.doneCh)
		}
	}
}
