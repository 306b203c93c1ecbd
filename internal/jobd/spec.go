// Package jobd is the sweep job daemon behind gcsimd: it accepts sweep
// specs, expands them into cells, schedules the cells across a bounded
// worker pool, and persists every cell outcome through a
// store.Repository. Determinism does the heavy lifting — a cell is a
// pure function of its config, so the daemon can dedupe identical
// cells across jobs, serve stored cells without re-running them, and
// resume a killed sweep bit-identically by re-enqueuing only the cells
// whose facts are missing from the store.
package jobd

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gcs/internal/sim"
)

// The caps on one spec, checked before expansion so a hostile spec can
// neither allocate an unbounded cell list nor admit a cell whose run
// exhausts memory (a fatal error no recover catches, repeated by every
// resume). MaxCells caps the grid; MaxNodes caps each cell's n (about
// 50 MB of node state); MaxSamples caps each cell's Horizon/SampleEvery
// (one SkewPoint per sample).
const (
	MaxCells   = 65536
	MaxNodes   = 1 << 16
	MaxSamples = 1 << 20
)

// SweepSpec is the wire form of one sweep job: the same scenario grid
// `gcsim sweep` builds from its flags — node counts x topologies x
// drivers x churn processes — plus the shared per-cell physics. Cells
// expands it with exactly the CLI's grid semantics, so a spec submitted
// to the daemon and the same flags run locally name, seed, and order
// their cells identically.
type SweepSpec struct {
	Ns      []int    `json:"ns"`
	Topos   []string `json:"topos"`
	Drivers []string `json:"drivers"`
	Churns  []string `json:"churns"`
	// Seed is the base seed; each cell derives its own with
	// sim.CellSeed(Seed, index).
	Seed     uint64        `json:"seed"`
	Horizon  float64       `json:"horizon,omitempty"`
	Rho      float64       `json:"rho,omitempty"`
	MaxDelay float64       `json:"max_delay,omitempty"`
	Beacon   float64       `json:"beacon,omitempty"`
	Sample   float64       `json:"sample,omitempty"`
	Interval float64       `json:"interval,omitempty"`
	Parallel bool          `json:"parallel,omitempty"`
	Shards   int           `json:"shards,omitempty"`
	Faults   sim.FaultSpec `json:"faults"`
}

// DecodeSpec parses a spec from JSON. Unknown fields and trailing data
// are rejected — a typoed field name silently ignored would run the
// wrong sweep.
func DecodeSpec(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return SweepSpec{}, fmt.Errorf("jobd: bad sweep spec: %w", err)
	}
	if dec.More() {
		return SweepSpec{}, fmt.Errorf("jobd: trailing data after sweep spec")
	}
	return s, nil
}

// normalized trims and lowercases the list fields so cosmetic spelling
// differences neither change the job's identity nor its cells.
func (s SweepSpec) normalized() SweepSpec {
	s.Ns = append([]int(nil), s.Ns...)
	s.Topos = cleanList(s.Topos)
	s.Drivers = cleanList(s.Drivers)
	s.Churns = cleanList(s.Churns)
	return s
}

func cleanList(in []string) []string {
	out := make([]string, 0, len(in))
	for _, v := range in {
		if v = strings.ToLower(strings.TrimSpace(v)); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// CanonicalJSON is the spec's identity encoding: the JSON of its
// normalized form. It is what JobRecord.Spec stores, and what ID
// hashes, so a resumed job re-derives the same ID it was admitted
// under.
func (s SweepSpec) CanonicalJSON() ([]byte, error) {
	data, err := json.Marshal(s.normalized())
	if err != nil {
		return nil, fmt.Errorf("jobd: encode sweep spec: %w", err)
	}
	return data, nil
}

// ID is the job's deterministic identity: the first 16 hex digits of
// the SHA-256 of the canonical spec JSON. Submitting the same spec
// twice therefore lands on the same job.
func (s SweepSpec) ID() (string, error) {
	data, err := s.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8]), nil
}

// Cells expands the spec into its sweep cells with the CLI grid's exact
// semantics: loop order n -> topology -> driver -> churn; the rotating
// star ignores the topology spec (its churn builds its own stars), so
// it is emitted once per (n, driver) — on the first topology of the
// list — labeled "-"; every cell gets Workers=1 (the daemon already
// parallelizes across cells) and a seed derived from the base seed and
// its emitted index.
func (s SweepSpec) Cells() ([]sim.SweepCell, error) {
	s = s.normalized()
	if len(s.Ns) == 0 || len(s.Topos) == 0 || len(s.Drivers) == 0 || len(s.Churns) == 0 {
		return nil, fmt.Errorf("jobd: spec needs at least one n, topology, driver, and churn")
	}
	total := 1
	for _, l := range []int{len(s.Ns), len(s.Topos), len(s.Drivers), len(s.Churns)} {
		total *= l
		if total > MaxCells {
			return nil, fmt.Errorf("jobd: grid exceeds the %d-cell cap", MaxCells)
		}
	}
	for _, n := range s.Ns {
		if n > MaxNodes {
			return nil, fmt.Errorf("jobd: n=%d exceeds the %d-node cap", n, MaxNodes)
		}
	}
	d := sim.Config{Horizon: s.Horizon, SampleEvery: s.Sample}.WithDefaults()
	if samples := d.Horizon / d.SampleEvery; !(samples <= MaxSamples) {
		return nil, fmt.Errorf("jobd: horizon %v / sample %v exceeds the %d-sample cap", d.Horizon, d.SampleEvery, MaxSamples)
	}
	var cells []sim.SweepCell
	for _, n := range s.Ns {
		for _, topoName := range s.Topos {
			for _, drvName := range s.Drivers {
				for _, churnName := range s.Churns {
					star := churnName == "rotatingstar"
					if star && topoName != s.Topos[0] {
						continue
					}
					cfg := sim.Config{
						N:           n,
						Horizon:     s.Horizon,
						Rho:         s.Rho,
						MaxDelay:    s.MaxDelay,
						SampleEvery: s.Sample,
						Parallel:    s.Parallel,
						Shards:      s.Shards,
						Workers:     1,
					}
					cfg.Node.BeaconEvery = s.Beacon
					drv, err := ParseDriver(drvName, s.Interval)
					if err != nil {
						return nil, err
					}
					cfg.Driver = drv
					churn, err := ParseChurn(churnName, n)
					if err != nil {
						return nil, err
					}
					cfg.Churn = churn
					cfg.Faults = s.Faults
					label := topoName
					if star {
						label = "-"
					} else {
						topo, err := ParseTopology(topoName, n)
						if err != nil {
							return nil, err
						}
						cfg.Topology = topo
					}
					cfg.Seed = sim.CellSeed(s.Seed, len(cells))
					name := fmt.Sprintf("%s/%s/%s/n=%d", label, drvName, churnName, n)
					cells = append(cells, sim.SweepCell{Name: name, Cfg: cfg})
				}
			}
		}
	}
	return cells, nil
}

// ParseTopology maps a topology name to its spec; grid uses the most
// square factorization of n. The two-chain lower-bound network is not a
// sweep topology.
func ParseTopology(name string, n int) (sim.TopologySpec, error) {
	kind, ok := sim.ParseTopologyKind(name)
	if !ok || kind == sim.TopoTwoChains {
		return sim.TopologySpec{}, fmt.Errorf("jobd: unknown topology %q", name)
	}
	spec := sim.TopologySpec{Kind: kind}
	if kind == sim.TopoGrid {
		spec.W = sim.SquareGridW(n)
		spec.H = n / spec.W
	}
	return spec, nil
}

// ParseDriver maps a driver name to its spec.
func ParseDriver(name string, interval float64) (sim.DriverSpec, error) {
	kind, ok := sim.ParseDriverKind(name)
	if !ok {
		return sim.DriverSpec{}, fmt.Errorf("jobd: unknown driver %q", name)
	}
	return sim.DriverSpec{Kind: kind, Interval: interval}, nil
}

// ParseChurn maps a churn name to its spec, scaling the volatile
// candidate pool with n.
func ParseChurn(name string, n int) (sim.ChurnSpec, error) {
	kind, ok := sim.ParseChurnKind(name)
	if !ok {
		return sim.ChurnSpec{}, fmt.Errorf("jobd: unknown churn %q", name)
	}
	switch kind {
	case sim.ChurnVolatile:
		return sim.ChurnSpec{Kind: kind, Lifetime: 1.5, Absence: 1.0, ExtraEdges: n / 2}, nil
	case sim.ChurnRotatingStar:
		return sim.ChurnSpec{Kind: kind, Period: 2, Overlap: 0.5}, nil
	}
	return sim.ChurnSpec{}, nil
}
