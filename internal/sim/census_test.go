package sim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"unsafe"

	"gcs/internal/clock"
	"gcs/internal/des"
	"gcs/internal/gcs"
)

// TestBytesPerNodeCensus is the node-state census: the live heap a warm
// Arena holds per node, split by owner. The total is a HeapAlloc delta
// across wiring and running the arena once, measured between full
// collections, and measured again if the runtime started an OS thread
// meanwhile (see threads). Each owner row is the owner's struct size
// (unsafe.Sizeof, or reflect's Type.Size for unexported types) times the
// lengths and capacities it holds, read from the live arena. The "other" row is the
// total less every owner row: closures, map buckets beyond their entries,
// slice headers and size-class rounding. The table is logged (run with
// -v); the test fails if the total exceeds its ceiling, so a regrowth of
// the working set cannot land silently, or if the graph's state grows
// with the horizon: rotstar at twice the horizon may hold at most 16 more
// bytes per node of open bits (the extra rotations' bits are 8), and of
// adjacency (a former hub hands its array to a later one). Its estimate
// tables do grow until every node has heard from every hub.
func TestBytesPerNodeCensus(t *testing.T) {
	ring := Config{
		N: 4096, Seed: 11, Horizon: 3, Rho: 0.01, MaxDelay: 0.01,
		Topology: TopologySpec{Kind: TopoRing},
		Driver:   DriverSpec{Kind: DriveRandomWalk, Interval: 1},
	}
	rotstar := ring
	rotstar.N, rotstar.Horizon = 256, 100
	rotstar.Topology = TopologySpec{}
	rotstar.Churn = ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5}
	longer := rotstar
	longer.Horizon = 200

	perNode := map[string]map[string]float64{} // bytes per node by case, then owner
	for _, tc := range []struct {
		name string
		cfg  Config
		// ceiling is a measured total bytes per node plus 4% (694.8,
		// 2 848.7 and 4 176.7 when set; 681.7, 2 887.2 and 4 215.2 now,
		// on linux/amd64, go1.24).
		ceiling float64
	}{
		{"ring4096", ring, 723},
		{"rotstar256", rotstar, 2963},
		{"rotstar256_h200", longer, 4366},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var a *Arena
			var total float64
			for try := 1; ; try++ {
				made, before := threads(), liveHeap()
				a = NewArena()
				a.Run(tc.cfg)
				total = float64(liveHeap()-before) / float64(tc.cfg.N)
				if threads() == made || try == 3 {
					break
				}
			}
			rows := census(a.s)
			runtime.KeepAlive(a)

			var b strings.Builder
			fmt.Fprintf(&b, "%s, n=%d: live bytes per node by owner\n", tc.name, tc.cfg.N)
			rest := total
			perNode[tc.name] = map[string]float64{}
			for _, r := range rows {
				per := r.bytes / float64(tc.cfg.N)
				rest -= per
				perNode[tc.name][r.owner] = per
				fmt.Fprintf(&b, "  %-42s %9.1f\n", r.owner, per)
			}
			fmt.Fprintf(&b, "  %-42s %9.1f\n", "other (closures, map overhead, rounding)", rest)
			fmt.Fprintf(&b, "  %-42s %9.1f (ceiling %.0f)\n", "total (HeapAlloc delta)", total, tc.ceiling)
			t.Log(b.String())
			if total > tc.ceiling {
				t.Errorf("%s: %.1f live bytes per node, ceiling %.0f", tc.name, total, tc.ceiling)
			}
		})
	}
	short, long := perNode["rotstar256"], perNode["rotstar256_h200"]
	for _, owner := range []string{"dyngraph open bits", "dyngraph adjacency"} {
		if short != nil && long != nil && math.Abs(long[owner]-short[owner]) > 16 {
			t.Errorf("%s: %.1f B per node at horizon 200, %.1f at 100: the graph's state grows with the horizon", owner, long[owner], short[owner])
		}
	}
}

// threads counts the OS threads the runtime has started. A new one
// leaves its m, g0 and profiling stack on the heap for good (5.1 KB on
// linux/amd64, go1.24: runtime.allocm, malg and makeProfStackFP in a
// heap profile), 20 B per node of the 256-node rotating star, so the
// census measures a run again when the runtime started one during it.
func threads() int { return pprof.Lookup("threadcreate").Count() }

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

type censusRow struct {
	owner string
	bytes float64
}

// census attributes the arena's per-node state to its owners. Unexported
// fields are read through reflect, which may inspect lengths and
// capacities of fields it may not otherwise touch.
func census(s *Simulation) []censusRow {
	var rows []censusRow
	add := func(owner string, bytes int) { rows = append(rows, censusRow{owner, float64(bytes)}) }
	ptr := int(unsafe.Sizeof(uintptr(0)))

	// A node record holds its node's first two estimates and its clock's
	// first two timers inline. A spilled estimate table costs its
	// capacity; a spilled timer costs its slice, its slot and the timer.
	var est, spilled int
	for i := range s.recs {
		r := &s.recs[i]
		tbl := field(&r.node, "est")
		if tbl.Cap() > field(&r.node, "estSmall").Len() {
			est += tbl.Cap() * int(tbl.Type().Elem().Size())
		}
		if sp := field(&r.clock, "spill"); !sp.IsNil() {
			ts := sp.Elem()
			spilled += int(ts.Type().Size()) + ts.Cap()*ptr + ts.Len()*int(ts.Type().Elem().Elem().Size())
		}
	}
	add("record: gcs.Node (two estimates inline)", len(s.recs)*int(unsafe.Sizeof(gcs.Node{})))
	add("record: clock.HardwareClock (with timers)", len(s.recs)*int(unsafe.Sizeof(clock.HardwareClock{}))+spilled)
	add("gcs estimate tables (spilled)", est)
	add("gcs.Shared (one per harness)", int(unsafe.Sizeof(gcs.Shared{})))
	add("sim.DriverState (with its des.Rand)", cap(s.drivers)*int(unsafe.Sizeof(DriverState{})))
	add("sim per-node slices", (cap(s.Clocks)+cap(s.Nodes)+cap(s.vals))*ptr)

	// A slot's queue half is in the slab, its payload in pay and its call
	// in the chunks.
	slab, pay, calls := field(s.Engine, "slab"), field(s.Engine, "pay"), field(s.Engine, "calls")
	add("des event slab (queued and free slots)",
		slab.Cap()*int(unsafe.Sizeof(des.Event{}))+pay.Cap()*int(pay.Type().Elem().Size())+
			calls.Len()*int(calls.Type().Elem().Elem().Size())+calls.Cap()*ptr)

	adj := field(s.Graph, "adj")
	adjBytes := adj.Cap() * int(adj.Type().Elem().Size())
	for i := 0; i < adj.Len(); i++ {
		adjBytes += adj.Index(i).Cap() * int(adj.Type().Elem().Elem().Size())
	}
	add("dyngraph adjacency", adjBytes)
	add("dyngraph open bits", field(s.Graph, "open").Cap()*8)

	lanes := field(s.Net, "lanes")
	var flights int
	for i := 0; i < lanes.Len(); i++ {
		fl := lanes.Index(i).Elem().FieldByName("flights")
		fr := lanes.Index(i).Elem().FieldByName("free")
		flights += fl.Cap()*int(fl.Type().Elem().Size()) + fr.Cap()*int(fr.Type().Elem().Size())
	}
	handlers := field(s.Net, "handlers")
	add("transport flights and handlers", flights+handlers.Cap()*int(handlers.Type().Elem().Size()))
	add("transport delay streams", field(&s.delays, "rands").Cap()*int(unsafe.Sizeof(des.Rand{})))
	return rows
}

// field returns the named field of the struct p points to.
func field(p any, name string) reflect.Value {
	v := reflect.ValueOf(p).Elem().FieldByName(name)
	if !v.IsValid() {
		panic(fmt.Sprintf("census: %T has no field %s", p, name))
	}
	return v
}
