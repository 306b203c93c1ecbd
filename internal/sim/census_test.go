package sim

import (
	"fmt"
	"reflect"
	"runtime"
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
// collections. Each owner row is the owner's struct size (unsafe.Sizeof,
// or reflect's Type.Size for unexported types) times the lengths and
// capacities it holds, read from the live arena. The "other" row is the
// total less every owner row: closures, map buckets beyond their entries,
// slice headers and size-class rounding. The table is logged (run with
// -v); the test fails if the total exceeds its ceiling, so a regrowth of
// the working set cannot land silently.
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

	for _, tc := range []struct {
		name string
		cfg  Config
		// ceiling is the measured total bytes per node plus 5% (1 029.9
		// and 7 418.0 on linux/amd64, go1.24).
		ceiling float64
	}{
		{"ring4096", ring, 1081},
		{"rotstar256", rotstar, 7789},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := liveHeap()
			a := NewArena()
			a.Run(tc.cfg)
			total := float64(liveHeap()-before) / float64(tc.cfg.N)
			rows := census(a.s)
			runtime.KeepAlive(a)

			var b strings.Builder
			fmt.Fprintf(&b, "%s, n=%d: live bytes per node by owner\n", tc.name, tc.cfg.N)
			rest := total
			for _, r := range rows {
				per := r.bytes / float64(tc.cfg.N)
				rest -= per
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
}

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

	var est, timers, timerSlots int
	for i, nd := range s.allNodes {
		tbl := field(nd, "est")
		est += tbl.Cap() * int(tbl.Type().Elem().Size())
		ts := field(s.allClocks[i], "timers")
		timers += ts.Len() * int(ts.Type().Elem().Elem().Size())
		timerSlots += ts.Cap() * ptr
	}
	add("gcs.Node", len(s.allNodes)*int(unsafe.Sizeof(gcs.Node{})))
	add("gcs estimate tables", est)
	add("clock.HardwareClock", len(s.allClocks)*int(unsafe.Sizeof(clock.HardwareClock{})))
	add("clock timers", timers+timerSlots)
	add("sim.DriverState (with its des.Rand)", cap(s.drivers)*int(unsafe.Sizeof(DriverState{})))
	add("sim per-node slices", (cap(s.allClocks)+cap(s.allNodes)+cap(s.vals))*ptr)

	slab, calls := field(s.Engine, "slab"), field(s.Engine, "calls")
	add("des event slab (queued and free slots)",
		slab.Cap()*int(unsafe.Sizeof(des.Event{}))+
			calls.Len()*int(calls.Type().Elem().Elem().Size())+calls.Cap()*ptr)

	adj := field(s.Graph, "adj")
	adjBytes := adj.Cap() * int(adj.Type().Elem().Size())
	for i := 0; i < adj.Len(); i++ {
		adjBytes += adj.Index(i).Cap() * ptr
	}
	add("dyngraph adjacency", adjBytes)
	hist := field(s.Graph, "hist")
	histBytes := hist.Len() * int(hist.Type().Key().Size()+hist.Type().Elem().Size())
	for it := hist.MapRange(); it.Next(); {
		histBytes += it.Value().Cap() * int(it.Value().Type().Elem().Size())
	}
	add("dyngraph history (entries)", histBytes)

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
