package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/gcs"
	"gcs/internal/jobd"
	"gcs/internal/seam"
	"gcs/internal/sim"
	"gcs/internal/store"
	"gcs/internal/transport"
)

// A layer probe drives one layer's public API in isolation, at a shape
// read off the workloads, for a fixed number of operations. It answers
// "what does this operation cost here?" without the rest of the stack
// around it, so a change to one layer has a number that moves even when
// the end-to-end effect is inside the noise. Probes do not depend on the
// workload; every traced run measures all of them.
type probe struct {
	name, unit, better string
	// run measures once and returns the value in unit. div divides the
	// operation counts and sizes (1 normally, large in the smoke test);
	// dir is a scratch directory.
	run func(div int, dir string) (float64, error)
}

const probeRounds = 3

// runProbes measures every probe probeRounds times and keeps the best
// round: interference only ever adds time, so the minimum is the
// cleanest estimate of a fixed amount of work.
func runProbes(div int, dir string) (map[string]float64, error) {
	out := map[string]float64{}
	for _, p := range probes {
		for r := 0; r < probeRounds; r++ {
			v, err := p.run(div, dir)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			best, seen := out[p.name]
			if !seen || (p.better == "lower" && v < best) || (p.better == "higher" && v > best) {
				out[p.name] = v
			}
		}
	}
	return out, nil
}

// scaled is n/div, but never less than one.
func scaled(n, div int) int { return max(1, n/div) }

// perOp times f, which performs n operations, and returns the cost of
// one in the given unit (seconds per unit: 1e-9 for ns, 1e-6 for us).
func perOp(n int, unit float64, f func()) float64 {
	t0 := time.Now()
	f()
	return time.Since(t0).Seconds() / float64(n) / unit
}

const (
	ns = 1e-9
	us = 1e-6
	ms = 1e-3
)

var probes = []probe{
	// The classic hold model: every fired event schedules one successor
	// U(0, 0.11] ahead (one beacon period plus one delay, the window that
	// holds every pending event of a ring run), so the pending set stays
	// at its size. 2k, 32k and 256k are the pending sets of ring1k_serial,
	// ring16k_serial and a 128k-node ring.
	{"des.hold_ns.p2k", "ns", "lower", holdProbe(2 << 10)},
	{"des.hold_ns.p32k", "ns", "lower", holdProbe(32 << 10)},
	{"des.hold_ns.p256k", "ns", "lower", holdProbe(256 << 10)},
	{"des.cancel_ns.p32k", "ns", "lower", probeCancel},
	{"clock.timer_reset_ns", "ns", "lower", probeTimerReset},
	{"clock.set_rate_ns", "ns", "lower", probeSetRate},
	{"transport.send_deliver_ns.deg2", "ns", "lower", probeSendDeliver},
	{"transport.broadcast_ns.deg255", "ns", "lower", probeBroadcast},
	{"transport.edge_remove_us.inflight", "us", "lower", probeEdgeRemove},
	{"gcs.on_message_ns.deg2", "ns", "lower", onMessageProbe(2)},
	{"gcs.on_message_ns.deg4", "ns", "lower", onMessageProbe(4)},
	{"gcs.on_message_ns.deg255", "ns", "lower", onMessageProbe(255)},
	{"dyngraph.add_remove_ns", "ns", "lower", probeAddRemove},
	{"dyngraph.append_neighbors_ns.deg2", "ns", "lower", appendNeighborsProbe(dyngraph.Ring(1024), 7)},
	{"dyngraph.append_neighbors_ns.deg255", "ns", "lower", appendNeighborsProbe(dyngraph.Star(256), 0)},
	{"dyngraph.exists_throughout_ns", "ns", "lower", probeExistsThroughout},
	{"dyngraph.distmatrix_update_ms.n256", "ms", "lower", distMatrixProbe(256)},
	{"dyngraph.distmatrix_update_ms.n1024", "ms", "lower", distMatrixProbe(1024)},
	{"dyngraph.bounded_update_ms.n4096r8", "ms", "lower", probeBoundedUpdate},
	{"fault.draw_ns", "ns", "lower", probeFaultDraw},
	{"store.key_of_us", "us", "lower", probeKeyOf},
	{"store.put_cell_us.mem", "us", "lower", probePutMem},
	{"store.get_under_put_us.p95", "us", "lower", probeGetUnderPut},
	{"jobd.sched_cells_per_s.mem", "cells/s", "higher", probeSched},
}

func holdProbe(pending int) func(int, string) (float64, error) {
	return func(div int, _ string) (float64, error) {
		pending := max(16, pending/div)
		en, r := des.NewEngine(), des.NewRand(1)
		var hold des.ArgHandler
		hold = func(arg uint64) { en.ScheduleAfterArg(0.11*(1-r.Float64()), "probe.hold", hold, arg) }
		for i := 0; i < pending; i++ {
			hold(0)
		}
		for i := 0; i < pending/4; i++ {
			en.Step()
		}
		n := scaled(100000, div)
		return perOp(n, ns, func() {
			for i := 0; i < n; i++ {
				en.Step()
			}
		}), nil
	}
}

// probeCancel cancels a random pending event out of 32k and schedules
// its replacement: what a timer reset costs the queue.
func probeCancel(div int, _ string) (float64, error) {
	en, r := des.NewEngine(), des.NewRand(1)
	noop := func(uint64) {}
	refs := make([]des.EventRef, max(16, (32<<10)/div))
	for i := range refs {
		refs[i] = en.ScheduleAfterArg(0.11*(1-r.Float64()), "probe.cancel", noop, 0)
	}
	n := scaled(100000, div)
	return perOp(n, ns, func() {
		for i := 0; i < n; i++ {
			j := r.Intn(len(refs))
			en.Cancel(refs[j])
			refs[j] = en.ScheduleAfterArg(0.11*(1-r.Float64()), "probe.cancel", noop, 0)
		}
	}), nil
}

// fourTimers is a hardware clock with four pending timers, the most a
// gcs node and its harness keep armed.
func fourTimers() (*clock.HardwareClock, []seam.Timer) {
	hw := clock.New(des.NewEngine(), 1)
	timers := make([]seam.Timer, 4)
	for i := range timers {
		timers[i] = hw.NewTimer("probe.timer", func() {})
		timers[i].Reset(0.1 + 0.01*float64(i))
	}
	return hw, timers
}

func probeTimerReset(div int, _ string) (float64, error) {
	_, timers := fourTimers()
	n := scaled(200000, div)
	return perOp(n, ns, func() {
		for i := 0; i < n; i++ {
			timers[i&3].Reset(0.1 + 0.001*float64(i&15))
		}
	}), nil
}

func probeSetRate(div int, _ string) (float64, error) {
	hw, _ := fourTimers()
	n := scaled(200000, div)
	return perOp(n, ns, func() {
		for i := 0; i < n; i++ {
			hw.SetRate(0.99 + 0.02*float64(i&1))
		}
	}), nil
}

// probeNet is a transport over a static graph with counting handlers.
func probeNet(n int, edges []dyngraph.Edge) (*des.Engine, *dyngraph.Dynamic, *transport.Network) {
	en := des.NewEngine()
	g := dyngraph.NewDynamic(n, edges)
	net := transport.New(en, g, transport.UniformDelay(0.01, des.NewRand(1)), 0.01)
	for u := 0; u < n; u++ {
		net.SetHandler(u, func(transport.Message) {})
	}
	return en, g, net
}

// probeSendDeliver: every node of a 1024-ring sends to its successor,
// then the engine delivers everything — the cost of one message from
// Send to handler at degree 2.
func probeSendDeliver(div int, _ string) (float64, error) {
	const n = 1024
	en, _, net := probeNet(n, dyngraph.Ring(n))
	rounds := scaled(100, div)
	return perOp(rounds*n, ns, func() {
		for r := 0; r < rounds; r++ {
			for u := 0; u < n; u++ {
				net.Send(u, (u+1)%n, 1)
			}
			en.RunUntilIdle(n + 1)
		}
	}), nil
}

// probeBroadcast: the hub of a 256-star broadcasts and the engine
// delivers; reported per message, so it compares with deg2.
func probeBroadcast(div int, _ string) (float64, error) {
	const n = 256
	en, _, net := probeNet(n, dyngraph.Star(n))
	rounds := scaled(400, div)
	return perOp(rounds*(n-1), ns, func() {
		for r := 0; r < rounds; r++ {
			net.Broadcast(0, 1)
			en.RunUntilIdle(n)
		}
	}), nil
}

// probeEdgeRemove removes an edge that has a message in flight — the
// rotating star's teardown. Only the removals are timed.
func probeEdgeRemove(div int, _ string) (float64, error) {
	const n = 256
	en, g, net := probeNet(n, dyngraph.Star(n))
	rounds := scaled(200, div)
	var total time.Duration
	for r := 0; r < rounds; r++ {
		net.Broadcast(0, 1)
		t0 := time.Now()
		for v := 1; v < n; v++ {
			g.Remove(en.Now(), dyngraph.E(0, v))
		}
		total += time.Since(t0)
		for v := 1; v < n; v++ {
			g.Add(en.Now(), dyngraph.E(0, v))
		}
	}
	return total.Seconds() / float64(rounds*(n-1)) / us, nil
}

// stubClock, stubTimer and stubTopo are the least a gcs.Node needs of
// its seam, so the probe times the node's own logic and nothing below.
type stubClock struct{ h float64 }

func (c *stubClock) Now() float64                       { return c.h }
func (c *stubClock) NewTimer(string, func()) seam.Timer { return &stubTimer{} }

type stubTimer struct{ armed bool }

func (t *stubTimer) Reset(float64) { t.armed = true }
func (t *stubTimer) Stop()         { t.armed = false }
func (t *stubTimer) Pending() bool { return t.armed }

type stubTopo []int

func (s stubTopo) AppendNeighbors(_ int, buf []int) []int { return append(buf, s...) }

// onMessageProbe feeds one node beacons from its deg neighbours in
// turn, each a little ahead of the last, so every message updates an
// estimate and re-evaluates both rules over the whole neighbourhood.
func onMessageProbe(deg int) func(int, string) (float64, error) {
	return func(div int, _ string) (float64, error) {
		clk := &stubClock{}
		topo := make(stubTopo, deg)
		for i := range topo {
			topo[i] = i + 1
		}
		nd := gcs.New(0, clk, gcs.Params{}, nil, topo)
		n := scaled(200000, div)
		return perOp(n, ns, func() {
			for i := 0; i < n; i++ {
				clk.h += 1e-3
				nd.OnMessage(topo[i%deg], clk.h+0.05*float64(i%7))
			}
		}), nil
	}
}

// churnEdges are chords of a 1024-ring, the volatile churner's shape.
func churnEdges() []dyngraph.Edge {
	edges := make([]dyngraph.Edge, 512)
	for i := range edges {
		edges[i] = dyngraph.E(i, i+300)
	}
	return edges
}

func probeAddRemove(div int, _ string) (float64, error) {
	g := dyngraph.NewDynamic(1024, dyngraph.Ring(1024))
	chords := churnEdges()
	rounds := scaled(40, div)
	t := 0.0
	return perOp(rounds*len(chords)*2, ns, func() {
		for r := 0; r < rounds; r++ {
			for _, e := range chords {
				t += 1e-6
				g.Add(t, e)
			}
			for _, e := range chords {
				t += 1e-6
				g.Remove(t, e)
			}
		}
	}), nil
}

func appendNeighborsProbe(edges []dyngraph.Edge, u int) func(int, string) (float64, error) {
	return func(div int, _ string) (float64, error) {
		g := dyngraph.NewDynamic(len(edges)+1, edges)
		buf := make([]int, 0, 256)
		n := scaled(200000, div)
		return perOp(n, ns, func() {
			for i := 0; i < n; i++ {
				buf = g.AppendNeighbors(u, buf[:0])
			}
		}), nil
	}
}

// probeExistsThroughout asks whether an edge with eight intervals of
// history covered a message's flight — the sharded transport's
// delivery-time drop test.
func probeExistsThroughout(div int, _ string) (float64, error) {
	g := dyngraph.NewDynamic(1024, dyngraph.Ring(1024))
	chords := churnEdges()
	t := 0.0
	for r := 0; r < 8; r++ {
		for _, e := range chords {
			g.Add(t, e)
		}
		t++
		if r < 7 {
			for _, e := range chords {
				g.Remove(t, e)
			}
			t++
		}
	}
	n := scaled(200000, div)
	hits := 0
	v := perOp(n, ns, func() {
		for i := 0; i < n; i++ {
			if g.ExistsThroughout(chords[i%len(chords)], t-0.5, t-0.49) {
				hits++
			}
		}
	})
	if hits != n {
		return 0, fmt.Errorf("ExistsThroughout missed a present edge (%d of %d)", hits, n)
	}
	return v, nil
}

// toggled flips one chord of g per call, which bumps the graph's epoch
// and invalidates every cached distance.
func toggled(g *dyngraph.Dynamic) func() {
	chord, t := dyngraph.E(0, g.N()/2), 0.0
	return func() {
		t++
		if g.Present(chord) {
			g.Remove(t, chord)
		} else {
			g.Add(t, chord)
		}
	}
}

// distMatrixProbe times the all-pairs revalidation the gradient checker
// pays after every topology change.
func distMatrixProbe(n int) func(int, string) (float64, error) {
	return func(div int, _ string) (float64, error) {
		n := max(8, n/div)
		g := dyngraph.NewDynamic(n, dyngraph.Ring(n))
		dm, toggle := dyngraph.NewDistanceMatrix(n), toggled(g)
		dm.Update(g)
		rounds := scaled(3*256/n, div)
		return perOp(rounds, ms, func() {
			for r := 0; r < rounds; r++ {
				toggle()
				dm.Update(g)
			}
		}), nil
	}
}

func probeBoundedUpdate(div int, _ string) (float64, error) {
	n := max(32, 4096/div)
	g := dyngraph.NewDynamic(n, dyngraph.Ring(n))
	bd, toggle := dyngraph.NewBoundedDistances(n, 8), toggled(g)
	bd.Update(g)
	const rounds = 5
	return perOp(rounds, ms, func() {
		for r := 0; r < rounds; r++ {
			toggle()
			bd.Update(g)
		}
	}), nil
}

func probeFaultDraw(div int, _ string) (float64, error) {
	const senders = 1024
	spec := fault.Spec{Drop: 0.05, Dup: 0.02, DelaySpike: 0.05}.WithDefaults(10)
	m := fault.NewMessages()
	m.Wire(spec, 0.01, senders, des.NewRand(1))
	var st fault.Stats
	n := scaled(500000, div)
	v := perOp(n, ns, func() {
		for i := 0; i < n; i++ {
			m.Draw(i%senders, 1, &st)
		}
	})
	if st.Total() == 0 {
		return 0, fmt.Errorf("fault plan drew no fault in %d messages", n)
	}
	return v, nil
}

// probeCell is a finished cell of the daemon workload's shape.
func probeCell(seed uint64) store.CellResult {
	cfg := sim.Config{N: 64, Seed: seed, Horizon: 10, Topology: sim.TopologySpec{Kind: sim.TopoRing}}.WithDefaults()
	return store.CellResult{Key: store.KeyOf(cfg), Cfg: cfg, Report: sim.SkewReport{Samples: 101, EventsExecuted: 1 << 20}}
}

func probeKeyOf(div int, _ string) (float64, error) {
	cfg := probeCell(1).Cfg
	n := scaled(20000, div)
	return perOp(n, us, func() {
		for i := 0; i < n; i++ {
			cfg.Seed = uint64(i)
			store.KeyOf(cfg)
		}
	}), nil
}

func probePutMem(div int, _ string) (float64, error) {
	repo := store.NewMemory()
	n := scaled(20000, div)
	cells := make([]store.CellResult, n)
	for i := range cells {
		cells[i] = probeCell(uint64(i))
	}
	var err error
	v := perOp(n, us, func() {
		for i := range cells {
			if e := repo.PutCell(cells[i]); e != nil {
				err = e
			}
		}
	})
	return v, err
}

// probeGetUnderPut reads one stored fact from a WAL while another
// goroutine appends to it as fast as fsync allows. Reads share the
// writer's mutex, so the tail of the read latency is the fsync.
func probeGetUnderPut(div int, dir string) (float64, error) {
	dir = filepath.Join(dir, fmt.Sprintf("probe-wal-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	wal, err := store.OpenWAL(dir, store.WALOptions{})
	if err != nil {
		return 0, err
	}
	defer wal.Close()
	hot := probeCell(0)
	if err := wal.PutCell(hot); err != nil {
		return 0, err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var putErr, getErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := wal.PutCell(probeCell(i)); err != nil {
				putErr = err
				return
			}
		}
	}()
	lat := make([]float64, scaled(400, div))
	for i := range lat {
		t0 := time.Now()
		_, ok := wal.GetCell(hot.Key)
		lat[i] = time.Since(t0).Seconds() / us
		if !ok {
			getErr = fmt.Errorf("stored cell not found")
			break
		}
		time.Sleep(50 * time.Microsecond) // let the writer take the mutex between reads
	}
	close(stop)
	wg.Wait()
	if putErr != nil || getErr != nil {
		return 0, errors.Join(putErr, getErr)
	}
	return tail(lat, 95), nil
}

// probeSched pushes a job of no-op cells through a daemon over
// store.Memory: admission, dedupe, fan-out and completion with nothing
// to execute and nothing to fsync — pure scheduling.
func probeSched(div int, _ string) (float64, error) {
	spec := jobd.SweepSpec{
		Topos: []string{"ring", "line"}, Drivers: []string{"randomwalk", "bangbang"},
		Churns: []string{"none", "volatile"}, Seed: 1, Horizon: 1,
	}
	for n := 8; len(spec.Ns) < scaled(64, div); n++ {
		spec.Ns = append(spec.Ns, n)
	}
	cells, err := spec.Cells()
	if err != nil {
		return 0, err
	}
	dm, err := jobd.New(jobd.Config{
		Repo: store.NewMemory(), Workers: 2,
		RunCell: func(*sim.Arena, sim.Config, float64, func() bool) (sim.SkewReport, bool) {
			return sim.SkewReport{}, true
		},
	})
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	view, _, err := dm.Submit(spec)
	if err == nil {
		done, _ := dm.Done(view.ID)
		<-done
	}
	secs := time.Since(t0).Seconds()
	if derr := dm.Drain(drainGrace); err == nil {
		err = derr
	}
	return float64(len(cells)) / secs, err
}
