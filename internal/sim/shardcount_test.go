package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"gcs/internal/des"
	"gcs/internal/simtest"
	"gcs/internal/transport"
)

// deliveryLog digests what every node is handed, in the order it is
// handed it: per node, a running hash of each delivery's time, sender
// and value bits, plus a count of deliveries at the same instant as the
// node's previous one. A node's slots are written only by the shard that
// carries it, so concurrent windows share nothing.
type deliveryLog struct {
	digest []uint64
	last   []float64
	ties   []int
}

// record re-registers every node's handler of s to log each delivery
// before the node sees it.
func record(s *Simulation) *deliveryLog {
	n := s.Cfg.N
	l := &deliveryLog{digest: make([]uint64, n), last: make([]float64, n), ties: make([]int, n)}
	for i := range l.last {
		l.last[i] = -1
	}
	for i := 0; i < n; i++ {
		s.Net.SetHandler(i, func(m transport.Message) {
			if m.DeliverAt == l.last[m.To] {
				l.ties[m.To]++
			}
			l.last[m.To] = m.DeliverAt
			h := l.digest[m.To]
			for _, w := range [...]uint64{math.Float64bits(m.DeliverAt), uint64(m.From), math.Float64bits(m.Value)} {
				h = (h ^ w) * 0x100000001b3
			}
			l.digest[m.To] = h
			s.onMessage(m)
		})
	}
	return l
}

// runLogged runs cfg on a fresh simulation with every delivery logged.
func runLogged(t *testing.T, cfg Config) (SkewReport, *deliveryLog) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%+v: %v", cfg, err)
	}
	s := New(cfg)
	l := record(s)
	return s.Run(), l
}

// randomShardConfig draws a scenario with a positive delay floor:
// topology, driver, churn, fault plan, gradient check, n in [8, 127].
func randomShardConfig(r *des.Rand, seed uint64) Config {
	cfg := Config{
		N: 8 + r.Intn(120), Seed: seed, Horizon: 2,
		Rho: 0.01, MaxDelay: r.Range(0.005, 0.02),
		Driver:        DriverSpec{Kind: DriverKind(r.Intn(3)), Interval: r.Range(0.3, 1)},
		CheckGradient: r.Bool(0.3),
	}
	cfg.MinDelay = cfg.MaxDelay * r.Range(0.1, 0.9)
	if r.Bool(0.2) {
		cfg.MinDelay = math.Nextafter(cfg.MaxDelay, 0) // fixed delays
	}
	switch r.Intn(4) {
	case 0:
		cfg.Topology.Kind = TopoRing
	case 1:
		cfg.Topology.Kind = TopoLine
	case 2:
		cfg.Topology.Kind = TopoStar
	default:
		w := 2 + r.Intn(10)
		cfg.N = w * (4 + r.Intn(8))
		cfg.Topology = TopologySpec{Kind: TopoGrid, W: w, H: cfg.N / w}
	}
	switch r.Intn(3) {
	case 1:
		cfg.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: 1, Absence: 0.5, ExtraEdges: cfg.N / 4}
	case 2:
		cfg.Churn = ChurnSpec{Kind: ChurnRotatingStar, Period: 0.5, Overlap: 0.125}
	}
	if plans := ChaosPlans(); r.Bool(0.4) {
		cfg.Faults = plans[r.Intn(len(plans))].Spec
	}
	return cfg
}

// tieStarN16 is a rotating star on 16 nodes with every delay fixed, so
// its leaves' greetings to a new hub arrive at one instant.
func tieStarN16() Config {
	return Config{N: 16, Seed: 1, Horizon: 4, MaxDelay: 0.01, MinDelay: math.Nextafter(0.01, 0),
		Topology: TopologySpec{Kind: TopoRing}, Driver: DriverSpec{Kind: DriveRandomWalk, Interval: 0.5},
		Churn: ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25}}
}

// TestCrossLaneTieOrderPinned pins the cross-lane tie order across
// commits, where TestShardCountInvariance compares shard counts within
// one: tieStarN16 on seven shards must hand every node its deliveries in
// the committed order (the fold of the per-node delivery digests) and
// give the committed report (sha256 of its %+v text, as the benchmark's
// report_digest). Its hubs run from node 0 up, one per second, and on
// seven shards node 3 is on lane 1, so it merges same-instant greetings
// from its own lane and from lane 0: a Merge that skips the tie sort, or
// orders ties by receiver alone, moves the delivery digest. On three
// shards every hub of the 4 s run is on lane 0, whose own outbox comes
// first and is already in sender order, so neither fault would show. The constants are every shard count's, and
// move only with a deliberate physics change, which moves the golden
// reports too.
func TestCrossLaneTieOrderPinned(t *testing.T) {
	const wantDeliveries, wantReport = 0xd4cfea4b07468de6, "064f40b174d69d84"
	cfg := tieStarN16()
	cfg.Shards, cfg.Workers = 7, 2
	rpt, l := runLogged(t, cfg)
	fold := uint64(0xcbf29ce484222325)
	for _, d := range l.digest {
		fold = (fold ^ d) * 0x100000001b3
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v\n", rpt)))
	if report := hex.EncodeToString(sum[:8]); fold != wantDeliveries || report != wantReport {
		t.Fatalf("delivery digest %#x, report digest %s; committed %#x, %s", fold, report, uint64(wantDeliveries), wantReport)
	}
}

// TestShardCountInvariance pins that the shard count is execution: at a
// positive MinDelay, every shard count gives the DeepEqual report, and
// every node is handed the same deliveries in the same order. Only
// deliveries to one node at one instant could tell partitions apart, so
// the tie rows fix every delay (or charge the Theorem 4.1 adversary's),
// and the rows marked ties must see such deliveries. Volatile churn and
// the adversary send at distinct instants, so only the rotating star,
// whose leaves all greet a new hub at once, is sure to. Shard counts
// alternate between the sharding sugar and a bare Shards field; the
// first two run on one worker, the last two on two.
func TestShardCountInvariance(t *testing.T) {
	type row struct {
		name string
		cfg  Config
		ties bool
		k    int // the fourth shard count; 0 draws it from the seed
	}
	walk := DriverSpec{Kind: DriveRandomWalk, Interval: 0.5}
	fixed := math.Nextafter(0.01, 0)
	rows := []row{
		// Before one merge order, Shards 7 reported TotalJumps 93 here and
		// the serial engine 92.
		{"tie/rotating star n16", tieStarN16(), true, 7},
		{"tie/rotating star n33 bangbang", Config{N: 33, Seed: 2, Horizon: 4, MaxDelay: 0.01, MinDelay: fixed,
			Driver: DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			Churn:  ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25}}, true, 0},
		{"tie/volatile n40", Config{N: 40, Seed: 3, Horizon: 4, MaxDelay: 0.01, MinDelay: fixed,
			Topology: TopologySpec{Kind: TopoRing}, Driver: walk,
			Churn: ChurnSpec{Kind: ChurnVolatile, Lifetime: 1, Absence: 0.5, ExtraEdges: 20}}, false, 0},
		{"tie/rotating star n24 faulted gradient", Config{N: 24, Seed: 5, Horizon: 4, MaxDelay: 0.01, MinDelay: fixed,
			Driver: walk, Churn: ChurnSpec{Kind: ChurnRotatingStar, Period: 1, Overlap: 0.25},
			Faults: chaosPlan(t, "all"), CheckGradient: true}, true, 0},
		{"tie/lower bound n16", Config{N: 16, Seed: 4, Horizon: 3, MaxDelay: 0.01, MinDelay: fixed,
			Topology: TopologySpec{Kind: TopoTwoChains}, LowerBoundEps: 0.01}, false, 0},
		{"tie/lower bound n32 eps", Config{N: 32, Seed: 6, Horizon: 3, MaxDelay: 0.01, MinDelay: 0.002,
			Topology: TopologySpec{Kind: TopoTwoChains}, LowerBoundEps: 0.005}, false, 0},
	}
	r := des.NewRand(0x5a4d)
	for i := 0; i < 200; i++ {
		rows = append(rows, row{name: fmt.Sprintf("random/%d", i), cfg: randomShardConfig(r, uint64(i+1))})
	}
	for _, rw := range rows {
		t.Run(rw.name, func(t *testing.T) {
			k := rw.k
			if k == 0 {
				k = 4 + int(rw.cfg.Seed%12)
			}
			var (
				want SkewReport
				ref  *deliveryLog
			)
			for j, shards := range []int{1, 2, 3, k} {
				cfg := rw.cfg
				cfg.Parallel, cfg.Shards, cfg.Workers = j%2 == 1, shards, 1+j/2
				got, l := runLogged(t, cfg)
				if j == 0 {
					want, ref = got, l
					ties := 0
					for _, c := range l.ties {
						ties += c
					}
					if rw.ties && ties == 0 {
						t.Fatal("a tie row saw no two deliveries to one node at one instant")
					}
					continue
				}
				simtest.AssertSameReport(t, fmt.Sprintf("shards=%d vs one shard", shards), got, want)
				for u := range l.digest {
					if l.digest[u] != ref.digest[u] {
						t.Fatalf("shards=%d: node %d was handed its deliveries unlike on one shard", shards, u)
					}
				}
			}
		})
	}
}
