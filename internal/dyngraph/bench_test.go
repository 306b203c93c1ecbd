package dyngraph

import (
	"fmt"
	"testing"

	"gcs/internal/des"
)

// BenchmarkDistanceMatrixUpdate is a profiling entry point for the
// all-pairs recompute (`go test -run '^$' -bench DistanceMatrixUpdate
// -cpuprofile cpu.out ./internal/dyngraph`), not a performance record:
// `go run ./benchmark` owns that. Every iteration toggles one edge, so
// every Update recomputes. The shapes span the kernel's range: a ring
// with n/2 random chords is what the gradient sweep's volatile overlay
// recomputes most (short diameter, so a batch of sources shares its
// frontiers), the plain ring is the worst case (diameter n/2, so a batch
// gains about one source per layer), the star is the best, and the
// square grid (16×16, 32×32) sits between.
func BenchmarkDistanceMatrixUpdate(b *testing.B) {
	for _, side := range []int{16, 32} {
		n := side * side
		for _, shape := range []struct {
			name string
			g    *Dynamic
		}{
			{"RingChords", randomDynamic(n, n/2, des.NewRand(1))},
			{"Ring", NewDynamic(n, Ring(n))},
			{"Grid", NewDynamic(n, Grid(side, side))},
			{"Star", NewDynamic(n, Star(n))},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", shape.name, n), func(b *testing.B) {
				g, dm, e := shape.g, NewDistanceMatrix(n), E(1, n/2)
				dm.Update(g) // fault the matrix in outside the measured loop
				b.ReportAllocs()
				for b.Loop() {
					if t := g.lastT + 1; g.Present(e) {
						g.Remove(t, e)
					} else {
						g.Add(t, e)
					}
					dm.Update(g)
				}
			})
		}
	}
}
