package dyngraph

import "fmt"

// Topology generators. Each returns the edge list of a classic static
// topology; scenarios use them as initial edge sets E_0 or as churn
// backbones.

// Line returns the path 0-1-2-...-(n-1), the topology of the paper's
// lower-bound chains and of the gradient-property experiments.
func Line(n int) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := 0; i+1 < n; i++ {
		edges = append(edges, E(i, i+1))
	}
	return edges
}

// Ring returns the cycle over n nodes (n >= 3).
func Ring(n int) []Edge {
	if n < 3 {
		panic("dyngraph: ring needs n >= 3")
	}
	edges := Line(n)
	return append(edges, E(0, n-1))
}

// Star returns edges from hub 0 to every other node.
func Star(n int) []Edge {
	edges := make([]Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, E(0, i))
	}
	return edges
}

// Complete returns all n(n-1)/2 edges.
func Complete(n int) []Edge {
	var edges []Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, Edge{U: u, V: v})
		}
	}
	return edges
}

// Grid returns a w x h grid graph; node (x, y) has index y*w + x.
func Grid(w, h int) []Edge {
	if w < 1 || h < 1 {
		panic("dyngraph: grid dimensions must be positive")
	}
	var edges []Edge
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				edges = append(edges, E(id(x, y), id(x+1, y)))
			}
			if y+1 < h {
				edges = append(edges, E(id(x, y), id(x, y+1)))
			}
		}
	}
	return edges
}

// TwoChains builds the Theorem 4.1 / Figure 1 network: two parallel
// chains A and B sharing endpoints w0 = node 0 and wn = node n-1.
//
// Chain A consists of nodes 0, A1..A(ceilA), n-1 and chain B of nodes 0,
// B1..B(ceilB), n-1, where ceilA = floor(n/2)-1 and ceilB = ceil(n/2)-1,
// giving n nodes total. It returns the edge list plus index helpers: the
// i-th interior node of chain A is AIndex(i) for i in [1, lenA], and
// symmetric for B; AIndex(0) = BIndex(0) = 0 and AIndex(lenA+1) =
// BIndex(lenB+1) = n-1.
type TwoChains struct {
	N          int
	Edges      []Edge
	lenA, lenB int // number of interior nodes per chain
}

// NewTwoChains constructs the Figure 1(a) topology over n >= 4 nodes.
func NewTwoChains(n int) *TwoChains {
	if n < 4 {
		panic("dyngraph: two-chains needs n >= 4")
	}
	lenA := n/2 - 1     // |I_A| = floor(n/2) - 1
	lenB := (n+1)/2 - 1 // |I_B| = ceil(n/2) - 1
	tc := &TwoChains{N: n, lenA: lenA, lenB: lenB}
	// Chain A's path 0, A1..AlenA, n-1, then chain B's.
	for c, idx := range [2]func(int) int{tc.AIndex, tc.BIndex} {
		for i := 1; i <= [2]int{lenA, lenB}[c]+1; i++ {
			tc.Edges = append(tc.Edges, E(idx(i-1), idx(i)))
		}
	}
	return tc
}

// LenB returns the number of interior nodes on chain B.
func (tc *TwoChains) LenB() int { return tc.lenB }

// AIndex maps chain-A position i (0 = w0, lenA+1 = wn) to a node index.
// Interior A nodes are numbered 1..lenA.
func (tc *TwoChains) AIndex(i int) int { return tc.index("A", i, tc.lenA, 0) }

// BIndex maps chain-B position i (0 = w0, lenB+1 = wn) to a node index.
// Interior B nodes are numbered lenA+1..lenA+lenB.
func (tc *TwoChains) BIndex(i int) int { return tc.index("B", i, tc.lenB, tc.lenA) }

// index maps position i of a chain whose k interior nodes are numbered
// base+1..base+k.
func (tc *TwoChains) index(chain string, i, k, base int) int {
	switch {
	case i == 0:
		return 0
	case i >= 1 && i <= k:
		return base + i
	case i == k+1:
		return tc.N - 1
	}
	panic(fmt.Sprintf("dyngraph: chain %s position %d out of range", chain, i))
}
