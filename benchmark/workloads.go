package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/jobd"
	"gcs/internal/sim"
)

// env is what a workload is generated from: everything downstream of it
// is a pure function of these fields, so the same seed gives the same
// inputs and the same simulated counts.
type env struct {
	seed    uint64
	workers int    // min(2, nproc): the load comes from one process with at most nproc workers
	smoke   bool   // toy sizes, for the structure-only smoke test
	workdir string // where the daemon workload keeps its WAL directories
}

// workload is one named set of inputs. Why each one exists is part of
// its definition: README.md and BENCHMARK.json repeat the sentence.
type workload struct {
	name string
	why  string
	// nodeSeconds is the numerator of node_s_per_s: the sum over the
	// workload's configs of N·Horizon. It is defined by the workload, not
	// by what the engine executes, so a change in event granularity
	// neither helps nor hurts it.
	nodeSeconds float64
	// cells is the number of finished results one rep produces.
	cells int
	inst  instance
}

// instance is a workload's running state. setup performs one cold
// set-up from nothing, times it and throws it away; rep runs the
// workload once on warm state (the first call warms it) and times the
// part a user waits for; verify runs the once-per-invocation checks
// against the reference rep and returns the host seconds of the
// Workers=1 run it made (0 where there is none); close releases what the
// last rep left open for the live-heap measurement. tr is nil with
// tracing off.
type instance interface {
	setup() (seconds float64, err error)
	rep(tr *tracer) repResult
	verify(ref repResult, t *tally) (w1Wall float64)
	close() error
}

// repResult is the outcome of one rep: the host seconds of the measured
// part, every finished report in workload order, and what went wrong.
type repResult struct {
	wall    float64
	cfgs    []sim.Config
	reports []sim.SkewReport
	errs    []string // failures that are not tied to one report (a refused submit, a store error)
}

const (
	whyRing16k = "16384-node ring, horizon 3, serial engine: ~35k pending events in one heap and 16k nodes' maps miss the cache, so the des queue and per-message map lookups do most of the work."
	whyRing1k  = "The same ring at 1024 nodes, horizon 100: a ~2k-entry heap and cache-resident state, so per-event gcs/transport/clock logic dominates; a queue or locality change should not move it."
	whySharded = "ring16k on the sharded engine (16 shards, 2 workers): 16 small heaps under RunBefore plus ParallelEngine windows and merge; window-worker or barrier changes show here only."
	whyRotstar = "256-node rotating star, horizon 100: n-1 edges torn down and rebuilt every rotation with messages in flight and a degree-255 hub; writes to dyngraph/transport where the rings only read."
	whySweep   = "The gcsim gradient grid at n=256 (5 shapes x 2 drivers x 6 replicas) through sim.RunSweep: many short cells, so Arena rewire, GradientChecker and DistanceMatrix revalidation dominate."
	whyDaemon  = "8 jobs (336 cells, odd jobs faulted) through an in-process jobd over a fresh WAL, one closed-loop client, then reopen and resume: submit -> durable fact, with the cached read path beside it."
)

func workloads(e env) []*workload {
	ringN, ringBigN, shards := 1024, 16384, 16
	hBig, hSmall, hStar, hCell := 3.0, 100.0, 100.0, 10.0
	starN, sweepN, replicas := 256, 256, 6
	daemonNs, jobs := []int{32, 64, 128}, 8
	if e.smoke {
		ringN, ringBigN, shards = 24, 64, 4
		hBig, hSmall, hStar, hCell = 1, 2, 4, 1
		starN, sweepN, replicas = 12, 16, 1
		daemonNs, jobs = []int{8, 12}, 2
	}
	ring := func(n int, horizon float64) sim.Config {
		return sim.Config{
			N: n, Seed: e.seed, Horizon: horizon, Rho: 0.01, MaxDelay: 0.01,
			Topology: sim.TopologySpec{Kind: sim.TopoRing},
			Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
		}
	}
	sharded := ring(ringBigN, hBig)
	sharded.Parallel, sharded.Shards, sharded.Workers = true, shards, e.workers
	rotstar := ring(starN, hStar)
	rotstar.Topology, rotstar.Churn = sim.TopologySpec{}, rotatingStar

	scen := func(name, why string, cfg sim.Config) *workload {
		return &workload{name: name, why: why, nodeSeconds: float64(cfg.N) * cfg.Horizon, cells: 1,
			inst: &scenario{cfg: cfg}}
	}
	sw := &sweep{workers: e.workers, build: func() []sim.SweepCell { return gradientGrid(e.seed, sweepN, replicas, hCell) }}
	dm := &daemonLoad{workers: e.workers, workdir: e.workdir, specs: daemonSpecs(e.seed, daemonNs, jobs, hCell)}
	swCells, dmCells := sw.build(), dm.allCells()
	return []*workload{
		scen("ring16k_serial", whyRing16k, ring(ringBigN, hBig)),
		scen("ring1k_serial", whyRing1k, ring(ringN, hSmall)),
		scen("ring16k_sharded", whySharded, sharded),
		scen("rotstar256_churn", whyRotstar, rotstar),
		{name: "gradient_sweep", why: whySweep, nodeSeconds: nodeSeconds(swCells), cells: len(swCells), inst: sw},
		{name: "daemon_sweep", why: whyDaemon, nodeSeconds: nodeSeconds(dmCells), cells: len(dmCells), inst: dm},
	}
}

var rotatingStar = sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 2, Overlap: 0.5}

func nodeSeconds(cells []sim.SweepCell) float64 {
	var s float64
	for _, c := range cells {
		s += float64(c.Cfg.N) * c.Cfg.Horizon
	}
	return s
}

// gradientGrid is the `gcsim gradient` grid at node count n: five
// shapes x two drivers, replicated with per-cell seeds so the sweep has
// enough short cells to keep two workers busy.
func gradientGrid(seed uint64, n, replicas int, horizon float64) []sim.SweepCell {
	grid, err := jobd.ParseTopology("grid", n) // the most square factorisation of n
	if err != nil {
		panic(err) // "grid" is a topology
	}
	shapes := []struct {
		name  string
		topo  sim.TopologySpec
		churn sim.ChurnSpec
	}{
		{"Line", sim.TopologySpec{Kind: sim.TopoLine}, sim.ChurnSpec{}},
		{"Ring", sim.TopologySpec{Kind: sim.TopoRing}, sim.ChurnSpec{}},
		{"Grid", grid, sim.ChurnSpec{}},
		{"Ring+Volatile", sim.TopologySpec{Kind: sim.TopoRing}, sim.ChurnSpec{
			Kind: sim.ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: n / 2}},
		{"RotatingStar", sim.TopologySpec{}, rotatingStar},
	}
	drivers := []sim.DriverSpec{
		{Kind: sim.DriveBangBang, Interval: 0.7},
		{Kind: sim.DriveRandomWalk, Interval: 0.5},
	}
	var cells []sim.SweepCell
	for _, sh := range shapes {
		for _, drv := range drivers {
			for r := 0; r < replicas; r++ {
				cells = append(cells, sim.SweepCell{
					Name: fmt.Sprintf("%s/%v/%d", sh.name, drv.Kind, r),
					Cfg: sim.Config{
						N: n, Seed: sim.CellSeed(seed, len(cells)), Horizon: horizon, Rho: 0.01, MaxDelay: 0.01,
						Topology: sh.topo, Driver: drv, Churn: sh.churn, CheckGradient: true,
					},
				})
			}
		}
	}
	return cells
}

// daemonSpecs are the jobs the daemon client submits in turn. Odd jobs
// carry a fault plan, so the fault layer runs beside the clean cells.
func daemonSpecs(seed uint64, ns []int, jobs int, horizon float64) []jobd.SweepSpec {
	specs := make([]jobd.SweepSpec, jobs)
	for j := range specs {
		specs[j] = jobd.SweepSpec{
			Ns:      ns,
			Topos:   []string{"ring", "grid", "line"},
			Drivers: []string{"randomwalk", "bangbang"},
			Churns:  []string{"none", "volatile", "rotatingstar"},
			Seed:    seed + uint64(j),
			Horizon: horizon, Rho: 0.01, MaxDelay: 0.01,
		}
		if j%2 == 1 {
			specs[j].Faults = sim.FaultSpec{Drop: 0.05, Dup: 0.02, DelaySpike: 0.05, CrashEvery: 20, RateExcursionEvery: 20}
		}
	}
	return specs
}

// scenario is one config run to its horizon on a reused Arena — what
// `gcsim` and `gcsim -parallel` do.
type scenario struct {
	cfg   sim.Config
	arena *sim.Arena
}

func (s *scenario) setup() (float64, error) {
	t0 := time.Now()
	a := sim.NewArena()
	if s.cfg.Parallel {
		a.Parallel(s.cfg)
	} else {
		a.Sim(s.cfg)
	}
	return time.Since(t0).Seconds(), nil
}

func (s *scenario) rep(tr *tracer) repResult {
	if s.arena == nil {
		s.arena = sim.NewArena()
	}
	root := tr.nextRep()
	run := tr.begin("sim.run", root)
	t0 := time.Now()
	var rpt sim.SkewReport
	if s.cfg.Parallel {
		rpt = runSharded(s.arena, s.cfg, tr, run)
	} else {
		rpt = runSerial(s.arena, s.cfg, tr, run)
	}
	wall := time.Since(t0).Seconds()
	tr.end(run)
	tr.end(root)
	return repResult{wall: wall, cfgs: []sim.Config{s.cfg}, reports: []sim.SkewReport{rpt}}
}

// verify pins worker invariance on the sharded workload: the Workers=1
// report must equal the reference, bit for bit. The run is made on the
// warm arena so that its time compares with a warm rep's.
func (s *scenario) verify(ref repResult, t *tally) float64 {
	if !s.cfg.Parallel {
		return 0
	}
	cfg := s.cfg
	cfg.Workers = 1
	runtime.GC()
	t0 := time.Now()
	rpt := s.arena.Run(cfg)
	wall := time.Since(t0).Seconds()
	t.op(diffReports("workers=1 vs workers=2", []sim.SkewReport{rpt}, ref.reports)...)
	return wall
}

func (s *scenario) close() error { return nil }

// runSerial wires a for cfg and runs it to its horizon, as Arena.Run
// does, cut into the three phases that are visible from outside: the
// rewire, the event loop, and the report finalisation. With a tracer
// the event loop runs under a kind-span hook.
func runSerial(a *sim.Arena, cfg sim.Config, tr *tracer, parent int) sim.SkewReport {
	id := tr.begin("sim.rewire", parent)
	s := a.Sim(cfg)
	tr.end(id)
	var agg *kindAgg
	if tr != nil {
		agg = newKindAgg(s.Engine, true)
		s.Engine.SetTraceHook(agg.hook)
	}
	id = tr.begin("sim.advance", parent)
	s.Advance(s.Cfg.Horizon)
	if agg != nil {
		agg.flush()
		s.Engine.SetTraceHook(nil)
		tr.merge(&agg.kindTotals)
	}
	tr.end(id)
	id = tr.begin("sim.finalise", parent)
	rpt := s.Run()
	tr.end(id)
	return rpt
}

// runSharded is runSerial for the sharded harness. ParallelSim exposes
// no Advance, so its run is one span; the shard engines' hooks only
// count — the idle gaps between a shard's windows would otherwise be
// charged to whichever event ran last.
func runSharded(a *sim.Arena, cfg sim.Config, tr *tracer, parent int) sim.SkewReport {
	id := tr.begin("sim.rewire", parent)
	ps := a.Parallel(cfg)
	tr.end(id)
	var aggs []*kindAgg
	if tr != nil {
		for i := 0; i <= ps.P.NumShards(); i++ {
			en := ps.P.Global()
			if i < ps.P.NumShards() {
				en = ps.P.Shard(i)
			}
			aggs = append(aggs, newKindAgg(en, false))
			en.SetTraceHook(aggs[i].hook)
		}
	}
	id = tr.begin("sim.advance", parent)
	rpt := ps.Run()
	tr.end(id)
	if tr != nil {
		par := parStats{windows: ps.P.Windows()}
		for i, agg := range aggs {
			agg.en.SetTraceHook(nil)
			tr.merge(&agg.kindTotals)
			if i < ps.P.NumShards() {
				par.shardEvents = append(par.shardEvents, agg.events())
			}
		}
		tr.setPar(par)
	}
	return rpt
}

// sweep is a grid of short cells through sim.RunSweep — what `gcsim
// gradient|sweep|chaos` do.
type sweep struct {
	build   func() []sim.SweepCell
	workers int
	cells   []sim.SweepCell
}

// setup is what stands between a grid's description and its first
// event: expanding the cells, validating every config, and wiring a
// fresh Arena for the first one.
func (w *sweep) setup() (float64, error) {
	t0 := time.Now()
	cells := w.build()
	for i := range cells {
		if err := cells[i].Cfg.Validate(); err != nil {
			return 0, err
		}
	}
	sim.NewArena().Sim(cells[0].Cfg)
	return time.Since(t0).Seconds(), nil
}

func (w *sweep) rep(tr *tracer) repResult {
	if w.cells == nil {
		w.cells = w.build()
	}
	res := repResult{}
	for _, c := range w.cells {
		res.cfgs = append(res.cfgs, c.Cfg)
	}
	if tr != nil {
		res.wall, res.reports = w.traced(tr)
		return res
	}
	t0 := time.Now()
	out, err := sim.RunSweep(w.cells, w.workers)
	res.wall = time.Since(t0).Seconds()
	if err != nil {
		res.errs = append(res.errs, err.Error())
	}
	for _, r := range out {
		res.reports = append(res.reports, r.Report)
	}
	return res
}

// traced runs the grid the way RunSweep does — workers pulling cell
// indices off one counter, a private Arena each — but through
// runSerial, so every cell gets its spans and kind totals. Its wall is
// directly comparable with RunSweep's.
func (w *sweep) traced(tr *tracer) (float64, []sim.SkewReport) {
	root := tr.nextRep()
	out := make([]sim.SkewReport, len(w.cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < w.workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := sim.NewArena()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(w.cells) {
					return
				}
				id := tr.begin("sim.run", root)
				out[i] = runSerial(a, w.cells[i].Cfg, tr, id)
				tr.end(id)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0).Seconds()
	tr.end(root)
	return wall, out
}

func (w *sweep) verify(repResult, *tally) float64 { return 0 }

func (w *sweep) close() error { return nil }
