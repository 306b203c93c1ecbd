package gcs

import (
	"math"
	"sort"
	"testing"

	"gcs/internal/des"
)

// nbrList is a mutable sorted neighbor set: the seam.Topology of a node
// whose edges the test adds and removes by hand.
type nbrList []int

func (s nbrList) AppendNeighbors(_ int, buf []int) []int { return append(buf, s...) }

func (s *nbrList) has(v int) bool {
	i := sort.SearchInts(*s, v)
	return i < len(*s) && (*s)[i] == v
}

func (s *nbrList) add(v int) {
	i := sort.SearchInts(*s, v)
	*s = append(*s, 0)
	copy((*s)[i+1:], (*s)[i:])
	(*s)[i] = v
}

func (s *nbrList) remove(v int) {
	i := sort.SearchInts(*s, v)
	*s = append((*s)[:i], (*s)[i+1:]...)
}

// sources is the number of distinct senders the property test draws
// from; the node under test is id sources, outside that range.
const sources = 300

// estModel is the reference node: the same rules as Node, with the
// estimates in a map and every maximum found by a full scan.
type estModel struct {
	p    Params
	age  float64
	est  map[int]float64
	nbrs *nbrList

	baseH, baseL, mult float64
	down, fast         bool
	target             float64
	msgs, jumps, disc  int
}

func (m *estModel) reset(p Params, h float64) {
	m.p = p.WithDefaults()
	m.age = (1 - m.p.Rho) / (1 + m.p.Rho)
	m.down = false
	m.msgs, m.jumps, m.disc = 0, 0, 0
	m.forget(h)
}

func (m *estModel) forget(h float64) {
	m.est = map[int]float64{}
	m.baseH, m.baseL, m.mult = h, h, 1
	m.fast = false
}

func (m *estModel) maxNorm() float64 {
	mx := math.Inf(-1)
	for _, norm := range m.est {
		mx = math.Max(mx, norm)
	}
	return mx
}

func (m *estModel) recompute(h float64) {
	L := m.baseL + m.mult*(h-m.baseH)
	if maxEst := m.maxNorm() + m.age*h; maxEst-L > m.p.JumpThreshold {
		L = maxEst
		m.jumps++
	}
	m.fast = false
	if m.p.FastRateEnabled() {
		nbrMax := math.Inf(-1)
		for _, v := range *m.nbrs {
			if norm, ok := m.est[v]; ok {
				nbrMax = math.Max(nbrMax, norm)
			}
		}
		m.target = nbrMax + m.age*h
		m.fast = m.target-L > m.p.Kappa
	}
	m.baseH, m.baseL, m.mult = h, L, 1
	if m.fast {
		m.mult = 1 + m.p.EffectiveMu()
	}
}

func (m *estModel) onMessage(from int, value, h float64) {
	if m.down {
		return
	}
	m.msgs++
	norm := value - m.age*h
	if old, ok := m.est[from]; !ok || norm > old {
		m.est[from] = norm
	}
	m.recompute(h)
}

func (m *estModel) snap(h float64) Snapshot {
	return Snapshot{
		ID:          sources,
		Hardware:    h,
		Logical:     m.baseL + m.mult*(h-m.baseH),
		MaxEstimate: m.maxNorm() + m.age*h,
		Messages:    m.msgs,
		Jumps:       m.jumps,
		Discoveries: m.disc,
		Fast:        m.fast,
	}
}

// TestPropertyEstimateTable drives one node through seeded scripts of
// messages from sources 0-299, edges added and removed (with their
// discover calls), crashes, recoveries and resets under changed
// parameters, and after every step holds it against estModel: the
// estimate table holds exactly the model's sources, in ascending order,
// with the model's norms; the snapshot (logical clock, max estimate,
// counters, regime) equals the model's; the cached neighbor maximum
// agrees with a scan; and the catch-up timer is armed exactly when the
// model is fast, for the model's target.
func TestPropertyEstimateTable(t *testing.T) {
	params := []Params{
		{Rho: 0.01, Kappa: 0.2, JumpThreshold: math.Inf(1)},
		{Rho: 0.05, Kappa: 0.1, Mu: 0.5, JumpThreshold: 1},
		{Rho: 0.02, Mu: MuDisabled, JumpThreshold: 0.5},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rnd := des.NewRand(seed)
		clk := &stepClock{}
		var nbrs nbrList
		nd := New(sources, clk, params[0], nil, &nbrs)
		m := &estModel{nbrs: &nbrs}
		m.reset(params[0], 0)

		var jumps, fastSeen, midInserts, biggest int
		for step := 0; step < 4000; step++ {
			clk.h += rnd.Range(0.001, 0.05)
			h := clk.h
			v := rnd.Intn(sources)
			var op string
			switch k := rnd.Intn(1000); {
			case k < 550:
				op = "message"
				if !nbrs.has(v) {
					// The harness delivers only over a present edge.
					nbrs.add(v)
					nd.OnEdgeAdded(v)
					m.discover(h)
				}
				if len(m.est) > 0 && v < maxKey(m.est) {
					if _, ok := m.est[v]; !ok && !m.down {
						midInserts++
					}
				}
				value := m.snap(h).Logical + rnd.Range(-1, 3)
				nd.OnMessage(v, value)
				m.onMessage(v, value, h)
			case k < 650:
				op = "add"
				if !nbrs.has(v) {
					nbrs.add(v)
					nd.OnEdgeAdded(v)
					m.discover(h)
				}
			case k < 900:
				op = "remove"
				if len(nbrs) > 0 {
					u := nbrs[rnd.Intn(len(nbrs))]
					nbrs.remove(u)
					nd.OnEdgeRemoved(u)
				}
			case k < 906:
				op = "crash"
				nd.Crash()
				m.down, m.fast = true, false
			case k < 998:
				op = "recover"
				if m.down {
					m.down = false
					m.forget(h)
				}
				nd.Recover()
			default:
				op = "reset"
				p := params[rnd.Intn(len(params))]
				nd.sh.Set(p, nil, &nbrs)
				nd.Reset()
				m.reset(p, h)
			}

			if len(nd.est) != len(m.est) {
				t.Fatalf("seed %d step %d (%s): table holds %d sources, model %d", seed, step, op, len(nd.est), len(m.est))
			}
			for i, e := range nd.est {
				if i > 0 && nd.est[i-1].from >= e.from {
					t.Fatalf("seed %d step %d (%s): table out of order at %d: %d then %d", seed, step, op, i, nd.est[i-1].from, e.from)
				}
				if norm, ok := m.est[e.from]; !ok || norm != e.norm {
					t.Fatalf("seed %d step %d (%s): source %d has norm %v, model %v (held %v)", seed, step, op, e.from, e.norm, norm, ok)
				}
			}
			want := m.snap(h)
			if got := nd.Snap(); got != want {
				t.Fatalf("seed %d step %d (%s): snapshot\n got %+v\nwant %+v", seed, step, op, got, want)
			}
			if err := nd.CheckNeighborMax(); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, op, err)
			}
			if nd.baseH == h && !m.down {
				tm := nd.catchupT.(*recTimer)
				if tm.armed != m.fast || m.fast && tm.dH != (m.target-m.baseL)/m.mult {
					t.Fatalf("seed %d step %d (%s): catch-up armed=%v dH=%v, model fast=%v", seed, step, op, tm.armed, tm.dH, m.fast)
				}
			}
			jumps = max(jumps, m.jumps)
			biggest = max(biggest, len(m.est))
			if m.fast {
				fastSeen++
			}
		}
		if jumps == 0 || fastSeen == 0 || midInserts == 0 || biggest < 100 {
			t.Fatalf("seed %d: degenerate script: jumps=%d fast=%d mid-table inserts=%d largest table=%d", seed, jumps, fastSeen, midInserts, biggest)
		}
	}
}

// discover is the model's OnEdgeAdded: a live node re-evaluates its
// regime and counts the discovery.
func (m *estModel) discover(h float64) {
	if m.down {
		return
	}
	m.recompute(h)
	m.disc++
}

func maxKey(est map[int]float64) int {
	mx := math.MinInt
	for k := range est {
		mx = max(mx, k)
	}
	return mx
}
