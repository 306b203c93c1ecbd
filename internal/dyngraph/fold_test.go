package dyngraph

import (
	"fmt"
	"math"
	"testing"

	"gcs/internal/des"
)

// TestDistanceFoldMatchesPairScan holds Fold to the pair scan over a
// built matrix, bit for bit: every bucket and the largest raised
// distance. Node counts straddle the 64-source batch; the graphs have
// long and short diameters, two components and isolated nodes; the
// values have exact ties, negatives, NaNs scattered, a whole batch of
// NaNs, nothing but NaNs, and infinities. Each case folds two samples
// in turn, so the second one starts from buckets the first raised.
func TestDistanceFoldMatchesPairScan(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 200} {
		r := des.NewRand(uint64(n))
		w := 1
		for x := 1; x*x <= n; x++ {
			if n%x == 0 {
				w = x
			}
		}
		type graph struct {
			name  string
			edges []Edge
		}
		graphs := []graph{
			{"line", Line(n)},
			{"grid", Grid(w, n/w)},
			{"star", Star(n)},
			{"isolated", sparseEdges(n, r)},
		}
		if n >= 2 {
			graphs = append(graphs, graph{"two-components", append(Line(n/2), shift(Line(n-n/2), n/2)...)})
		}
		if n >= 3 {
			var chords []Edge
			randomDynamic(n, n/2, r).RangeCurrentEdges(func(e Edge) { chords = append(chords, e) })
			graphs = append(graphs, graph{"ring+chords", chords})
		}
		for _, gr := range graphs {
			for _, vs := range foldValues(n, r) {
				t.Run(fmt.Sprintf("n=%d/%s/%s", n, gr.name, vs.name), func(t *testing.T) {
					g := NewDynamic(n, gr.edges)
					dm := NewDistanceMatrix(n)
					dm.Update(g)
					want, got := make([]float64, n), make([]float64, n)
					for i, vals := range vs.samples {
						wantD := scanPairs(dm, vals, want)
						gotD, ok := NewDistanceMatrix(n).Fold(g, vals, got)
						if !ok {
							t.Fatal("a fresh matrix did not fold")
						}
						if gotD != wantD {
							t.Fatalf("sample %d: fold raised up to distance %d, scan %d", i, gotD, wantD)
						}
						for d := range want {
							if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
								t.Fatalf("sample %d: bucket %d folds to %v, scan %v", i, d, got[d], want[d])
							}
						}
					}
				})
			}
		}
	}
}

// shift renumbers edges by off.
func shift(edges []Edge, off int) []Edge {
	out := make([]Edge, len(edges))
	for i, e := range edges {
		out[i] = E(int(e.U)+off, int(e.V)+off)
	}
	return out
}

// foldValues returns named pairs of samples over n nodes.
func foldValues(n int, r *des.Rand) []struct {
	name    string
	samples [2][]float64
} {
	nan, inf := math.NaN(), math.Inf(1)
	gen := func(f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	clockLike := func(int) float64 { return 100 + r.Range(-0.05, 0.05) }
	ties := func(int) float64 { return float64(r.Intn(3)) * 0.5 }
	negative := func(int) float64 { return r.Range(-5, 5) }
	someNaN := func(i int) float64 {
		if r.Intn(4) == 0 {
			return nan
		}
		return r.Range(-1, 1)
	}
	firstBatchNaN := func(i int) float64 {
		if i < batch {
			return nan
		}
		return r.Range(-1, 1)
	}
	allNaN := func(int) float64 { return nan }
	infinite := func(int) float64 { return [...]float64{inf, -inf, nan, 0, 1, -1}[r.Intn(6)] }
	return []struct {
		name    string
		samples [2][]float64
	}{
		{"clock", [2][]float64{gen(clockLike), gen(clockLike)}},
		{"ties", [2][]float64{gen(ties), gen(ties)}},
		{"negative", [2][]float64{gen(negative), gen(negative)}},
		{"some-nan", [2][]float64{gen(someNaN), gen(someNaN)}},
		{"batch-nan", [2][]float64{gen(firstBatchNaN), gen(firstBatchNaN)}},
		{"all-nan", [2][]float64{gen(allNaN), gen(negative)}},
		{"infinite", [2][]float64{gen(infinite), gen(infinite)}},
	}
}

// TestFoldThenBuild pins the protocol the gradient checker runs: the
// first Fold at an epoch folds and counts it, a second one at the same
// epoch declines, Update then builds the matrix without counting the
// epoch again, and Row is unusable between the Fold and that Update.
func TestFoldThenBuild(t *testing.T) {
	n := 8
	g := NewDynamic(n, Ring(n))
	dm := NewDistanceMatrix(n)
	vals, buckets := make([]float64, n), make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	if _, ok := dm.Fold(g, vals, buckets); !ok {
		t.Fatal("first Fold declined")
	}
	if _, ok := dm.Fold(g, vals, buckets); ok {
		t.Fatal("second Fold at one epoch folded again")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Row after a Fold returned a stale matrix")
			}
		}()
		dm.Row(0)
	}()
	if !dm.Update(g) || dm.Update(g) {
		t.Fatal("Update after a Fold must build once, then hold")
	}
	if dm.Recomputes() != 1 || dm.builds != 1 {
		t.Fatalf("recomputes %d, builds %d; want 1 epoch, 1 build", dm.Recomputes(), dm.builds)
	}
	if got := dm.Row(0)[n/2]; got != int32(n/2) {
		t.Fatalf("dist(0, %d) = %d, want %d", n/2, got, n/2)
	}
	g.Add(1, E(0, n/2))
	if _, ok := dm.Fold(g, vals, buckets); !ok || dm.Recomputes() != 2 || dm.builds != 1 {
		t.Fatalf("a new epoch after a build: fold %v, recomputes %d, builds %d", ok, dm.Recomputes(), dm.builds)
	}
}

// FuzzDistanceFold holds Fold to the pair scan on arbitrary graphs and
// values. The first byte sizes the graph (1 to 130 nodes, so up to three
// batches), then each pair of bytes is an edge until a zero pair, and
// each following byte is a node's value: ties, negatives, NaN and
// infinities among them.
func FuzzDistanceFold(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 3, 4, 0, 0, 10, 20, 255, 30, 10})
	f.Add([]byte{70, 0, 65, 65, 66, 1, 69, 0, 0, 254, 1, 2, 253, 7, 7, 7})
	f.Add([]byte{129, 3, 4, 4, 128, 128, 0, 9, 100, 0, 0, 252, 251, 250})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1000 {
			return
		}
		n := 1 + int(in[0])%130
		in = in[1:]
		var edges []Edge
		for len(in) >= 2 {
			u, v := int(in[0])%n, int(in[1])%n
			in = in[2:]
			if u == v {
				break
			}
			edges = append(edges, E(u, v))
		}
		vals := make([]float64, n)
		for i := range vals {
			b := byte(i * 37) // nodes past the input get values too
			if i < len(in) {
				b = in[i]
			}
			switch b {
			case 255:
				vals[i] = math.NaN()
			case 254:
				vals[i] = math.Inf(1)
			case 253:
				vals[i] = math.Inf(-1)
			default:
				vals[i] = float64(int(b)-100) / 8
			}
		}
		g := NewDynamic(n, edges)
		dm := NewDistanceMatrix(n)
		dm.Update(g)
		want, got := make([]float64, n), make([]float64, n)
		wantD := scanPairs(dm, vals, want)
		gotD, _ := NewDistanceMatrix(n).Fold(g, vals, got)
		if gotD != wantD {
			t.Fatalf("fold raised up to distance %d, scan %d", gotD, wantD)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("bucket %d folds to %v, scan %v", d, got[d], want[d])
			}
		}
	})
}
