package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the run's flags.
type options struct {
	names   []string // workloads to run; empty means all
	seed    uint64
	seconds float64 // measuring time per workload
	reps    int     // fixed rep count; 0 means as many as fit in seconds
	trace   bool    // the traced run: per-layer metrics instead of end-to-end ones
	probes  bool    // with trace, also run the layer probes
	smoke   bool
	outDir  string
	workdir string
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind Value; Summary describes them,
	// and Samples lists them in the order taken, when the metric is a
	// median of reps.
	N       int       `json:"n"`
	Summary *summary  `json:"summary,omitempty"`
	Samples []float64 `json:"samples,omitempty"`
}

// result is everything one invocation learned about one workload.
type result struct {
	Workload  string           `json:"workload"`
	Why       string           `json:"why"`
	Reps      int              `json:"reps"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	FailFrac  float64          `json:"fail_frac"`
	Notes     []string         `json:"notes,omitempty"`
	Counts    counts           `json:"counts"`
	Metrics   map[string]value `json:"metrics"`
}

// state is a workload while the benchmark runs.
type state struct {
	w      *workload
	tr     *tracer
	tally  tally
	ref    repResult // the cold run: the reference every later rep must equal
	counts counts
	setup  []float64
	walls  []float64 // untraced warm reps
	traced []float64 // traced warm reps
	allocs []float64 // mallocs per untraced warm rep
	w1Wall float64   // the Workers=1 run of the sharded workload
	cold   []float64 // fresh wirings of the first config (traced run)
	heapMB float64
}

// Set-up is sampled before anything else runs, when the process is as
// cold as a user's. A set-up can take microseconds, so one sample is the
// mean of a batch of set-ups lasting about setupBatchSeconds together;
// samples are taken until setupSeconds of set-up time have been spent,
// at least setupMin and at most setupMax of them.
const (
	setupBatchSeconds = 0.01
	setupSeconds      = 0.5
	setupMin          = 5
	setupMax          = 25
)

// run executes the selected workloads and returns one result each, in
// workload order.
func run(o options) ([]result, error) {
	for _, dir := range []string{o.outDir, o.workdir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e := env{seed: o.seed, workers: workers(), smoke: o.smoke, workdir: o.workdir}
	states, err := selectWorkloads(workloads(e), o.names)
	if err != nil {
		return nil, err
	}

	// Cold set-up, several times over: setup_s is the median.
	for _, s := range states {
		if err := s.sampleSetup(o.smoke); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", s.w.name, err)
		}
	}

	// One untimed cold run each. It warms the arena, and its reports are
	// the reference: every later rep must reproduce them bit for bit.
	for _, s := range states {
		s.ref = s.w.inst.rep(nil)
		s.counts = countsOf(s.ref.reports)
		checkRep(&s.tally, "cold run", s.w.cells, s.ref, s.ref)
		s.w1Wall = s.w.inst.verify(s.ref, &s.tally)
	}

	// Warm reps, tracing off. With -trace the time is shared with the
	// traced reps and the probes.
	budget, minReps := o.seconds, 3
	if o.trace {
		budget, minReps = 0.4*o.seconds, 2
	}
	interleave(states, o.reps, minReps, budget, func(s *state, r int) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := s.w.inst.rep(nil)
		runtime.ReadMemStats(&after)
		s.walls = append(s.walls, got.wall)
		s.allocs = append(s.allocs, float64(after.Mallocs-before.Mallocs))
		checkRep(&s.tally, fmt.Sprintf("rep %d", r), s.w.cells, got, s.ref)
	})

	var probed map[string]float64
	if o.trace {
		for _, s := range states {
			s.tr = newTracer(s.w.name)
			s.cold = coldWires(s.ref.cfgs[0])
		}
		interleave(states, o.reps, 1, 0.4*o.seconds, func(s *state, r int) {
			runtime.GC()
			got := s.w.inst.rep(s.tr)
			s.traced = append(s.traced, got.wall)
			checkRep(&s.tally, fmt.Sprintf("traced rep %d", r), s.w.cells, got, s.ref)
		})
		if o.probes {
			div := 1
			if o.smoke {
				div = 200
			}
			if probed, err = runProbes(div, o.workdir); err != nil {
				return nil, err
			}
		}
	}

	// Live heap: what is reachable with the workload's state referenced.
	// Workloads sharing the process are dropped one at a time, and each is
	// charged its own drop plus the floor left when all are gone, so alone
	// in a process a workload reads exactly its process's live heap.
	var with, without []int64
	for _, s := range states {
		with = append(with, liveHeap())
		if err := s.w.inst.close(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.w.name, err)
		}
		s.w.inst, s.ref = nil, repResult{}
		without = append(without, liveHeap())
	}
	for i, s := range states {
		s.heapMB = float64(with[i]-without[i]+without[len(without)-1]) / 1e6
	}

	results := make([]result, len(states))
	for i, s := range states {
		results[i] = s.result(o, e, probed)
		if s.tr != nil {
			if err := s.tr.write(filepath.Join(o.outDir, "trace_"+s.w.name+".json")); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// sampleSetup fills s.setup. The first set-up only sizes the batches: it
// also pays for faulting the code in, so it is not a sample — except in
// the smoke test, where it is the only one.
func (s *state) sampleSetup(smoke bool) error {
	first, err := s.timeSetups(1)
	if err != nil {
		return err
	}
	if smoke {
		s.setup = []float64{first}
		return nil
	}
	batch := min(64, max(1, int(setupBatchSeconds/first)))
	for spent := 0.0; len(s.setup) < setupMin || (spent < setupSeconds && len(s.setup) < setupMax); {
		mean, err := s.timeSetups(batch)
		if err != nil {
			return err
		}
		s.setup = append(s.setup, mean)
		spent += mean * float64(batch)
	}
	return nil
}

// timeSetups performs n cold set-ups, each from a collected heap, and
// returns their mean time.
func (s *state) timeSetups(n int) (float64, error) {
	var sum float64
	for i := 0; i < n; i++ {
		runtime.GC()
		secs, err := s.w.inst.setup()
		if err != nil {
			return 0, err
		}
		sum += secs
	}
	return sum / float64(n), nil
}

// workers is the parallelism every workload uses: the load comes from
// this one process, with at most nproc workers.
func workers() int { return min(2, runtime.NumCPU()) }

// selectWorkloads returns a fresh state for each named workload, in the
// order named; no names means all of them.
func selectWorkloads(all []*workload, names []string) ([]*state, error) {
	byName := map[string]*workload{}
	var allNames []string
	for _, w := range all {
		byName[w.name] = w
		allNames = append(allNames, w.name)
	}
	if len(names) == 0 {
		names = allNames
	}
	var out []*state
	for _, name := range names {
		w, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
		out = append(out, &state{w: w})
	}
	return out, nil
}

// interleave runs reps round-robin across the workloads — rep r of every
// workload before rep r+1 of any — so a burst of host noise costs one
// rep of each workload rather than every rep of one. A workload keeps
// going while it has done fewer than minReps or another rep of typical
// length still fits in its budget of host seconds; a positive fixed
// count overrides both.
func interleave(states []*state, fixed, minReps int, budget float64, rep func(s *state, r int)) {
	done, spent := make([]int, len(states)), make([]float64, len(states))
	for r := 0; ; r++ {
		ran := false
		for i, s := range states {
			if fixed > 0 {
				if r >= fixed {
					continue
				}
			} else if r >= minReps && spent[i]+spent[i]/float64(done[i]) > budget {
				continue
			}
			t0 := time.Now()
			rep(s, r)
			spent[i] += time.Since(t0).Seconds()
			done[i]++
			ran = true
		}
		if !ran {
			return
		}
	}
}

// liveHeap is the heap still reachable after a full collection. The
// second collection lets finalizers queued by the first (closed files)
// release what they held.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
