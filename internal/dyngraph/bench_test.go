package dyngraph

import (
	"fmt"
	"testing"

	"gcs/internal/des"
)

// BenchmarkDistanceMatrixUpdate is a profiling entry point for the
// all-pairs distance kernel (`go test -run '^$' -bench
// DistanceMatrixUpdate -cpuprofile cpu.out ./internal/dyngraph`), not a
// performance record: `go run ./benchmark` owns that. It times the
// gradient checker's two per-sample paths. Update toggles one edge per
// iteration, so every Update recomputes; Scan is one pass over every
// pair of the built matrix, so Update plus Scan is a sample that builds
// the matrix. Fold toggles the same edge and folds a sample of clock
// values without building it. The shapes span the kernel's range: a
// ring with n/2 random chords is what the gradient sweep's volatile
// overlay recomputes most (short diameter, so a batch of sources shares
// its frontiers), the plain ring is the worst case (diameter n/2, so a
// batch gains about one source per layer), the star is the best, and
// the square grid (16×16, 32×32) sits between.
func BenchmarkDistanceMatrixUpdate(b *testing.B) {
	for _, side := range []int{16, 32} {
		n := side * side
		r := des.NewRand(uint64(n))
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = 10 + r.Range(-0.05, 0.05)
		}
		for _, shape := range []struct {
			name string
			g    *Dynamic
		}{
			{"RingChords", randomDynamic(n, n/2, des.NewRand(1))},
			{"Ring", NewDynamic(n, Ring(n))},
			{"Grid", NewDynamic(n, Grid(side, side))},
			{"Star", NewDynamic(n, Star(n))},
		} {
			g, e := shape.g, E(1, n/2)
			toggle := func() {
				if t := g.lastT + 1; g.Present(e) {
					g.Remove(t, e)
				} else {
					g.Add(t, e)
				}
			}
			b.Run(fmt.Sprintf("%s/n=%d/Update", shape.name, n), func(b *testing.B) {
				dm := NewDistanceMatrix(n)
				dm.Update(g) // fault the matrix in outside the measured loop
				b.ReportAllocs()
				for b.Loop() {
					toggle()
					dm.Update(g)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/Scan", shape.name, n), func(b *testing.B) {
				dm, buckets := NewDistanceMatrix(n), make([]float64, n)
				dm.Update(g)
				b.ReportAllocs()
				for b.Loop() {
					clear(buckets)
					scanPairs(dm, vals, buckets)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/Fold", shape.name, n), func(b *testing.B) {
				dm, buckets := NewDistanceMatrix(n), make([]float64, n)
				dm.Update(g)
				b.ReportAllocs()
				for b.Loop() {
					toggle()
					clear(buckets)
					dm.Fold(g, vals, buckets)
				}
			})
		}
	}
}
