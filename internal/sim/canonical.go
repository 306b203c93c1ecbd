package sim

import (
	"encoding/binary"
	"math"
)

// canonicalVersion is the format tag AppendCanonical prefixes its
// output with. Bump it whenever a field is added to Config (or to any
// struct it embeds) or the encoding order changes: the canonical bytes
// are the basis of the result store's content addresses, and a silent
// layout change would alias old cached results onto new physics.
//
// 1 -> 2: the trailing byte for the transport-batching opt-out is gone
// with that Config field, and the serial transport now drops a message
// at its delivery event instead of cancelling that event when the edge
// goes, so a serial cell with drops reports EventsExecuted higher by its
// Transport.Dropped (nothing else in the report moves). A version-1
// fact must not answer a version-2 run.
const canonicalVersion = 2

// AppendCanonical appends a canonical binary encoding of the config to
// dst and returns the extended slice. The encoding is the identity of a
// sweep cell for content-addressed result caching: two configs encode
// identically exactly when they describe the same simulated physics, so
// a durable store may serve a cached SkewReport for one in place of
// running the other.
//
// Properties the store relies on:
//
//   - The encoding is over the *defaulted* config, so an unset field
//     and its explicit default are the same cell.
//   - Workers is excluded: it is pure execution (the worker-invariance
//     suites pin that it never changes a report), so runs of the same
//     cell at different worker counts dedupe.
//   - Floats are encoded as IEEE-754 bits, making the map total (Inf
//     and NaN included) and exact — no formatting round-trip.
//
// Every remaining field is physics (Seed, delay law, topology, driver,
// churn, node parameters, fault plan, gradient-check shape)
// and is encoded in declared order behind a version byte.
func (c Config) AppendCanonical(dst []byte) []byte {
	d := c.WithDefaults()
	dst = append(dst, canonicalVersion)
	dst = appendU64(dst, uint64(d.N))
	dst = appendU64(dst, d.Seed)
	dst = appendF64(dst, d.Horizon)
	dst = appendF64(dst, d.Rho)
	dst = appendF64(dst, d.MaxDelay)

	dst = appendU64(dst, uint64(d.Topology.Kind))
	dst = appendU64(dst, uint64(d.Topology.W))
	dst = appendU64(dst, uint64(d.Topology.H))

	dst = appendU64(dst, uint64(d.Driver.Kind))
	dst = appendF64(dst, d.Driver.Interval)

	dst = appendU64(dst, uint64(d.Churn.Kind))
	dst = appendF64(dst, d.Churn.Period)
	dst = appendF64(dst, d.Churn.Overlap)
	dst = appendF64(dst, d.Churn.Lifetime)
	dst = appendF64(dst, d.Churn.Absence)
	dst = appendU64(dst, uint64(d.Churn.ExtraEdges))

	dst = appendF64(dst, d.Node.Rho)
	dst = appendF64(dst, d.Node.MaxDelay)
	dst = appendF64(dst, d.Node.BeaconEvery)
	dst = appendF64(dst, d.Node.Kappa)
	dst = appendF64(dst, d.Node.Mu)
	dst = appendF64(dst, d.Node.JumpThreshold)

	dst = appendF64(dst, d.SampleEvery)
	dst = appendBool(dst, d.CheckGradient)
	dst = appendU64(dst, uint64(d.GradientRadius))
	dst = appendU64(dst, uint64(d.GradientSources))

	dst = appendBool(dst, d.Parallel)
	dst = appendU64(dst, uint64(d.Shards))
	dst = appendF64(dst, d.MinDelay)

	dst = appendF64(dst, d.Faults.Drop)
	dst = appendF64(dst, d.Faults.Dup)
	dst = appendF64(dst, d.Faults.DelaySpike)
	dst = appendF64(dst, d.Faults.SpikeFactor)
	dst = appendF64(dst, d.Faults.CrashEvery)
	dst = appendF64(dst, d.Faults.CrashDowntime)
	dst = appendBool(dst, d.Faults.CrashStop)
	dst = appendF64(dst, d.Faults.RateExcursionEvery)
	dst = appendF64(dst, d.Faults.RateExcursionFactor)
	dst = appendF64(dst, d.Faults.RateExcursionFor)
	dst = appendF64(dst, d.Faults.Until)
	return dst
}

func appendU64(dst []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, v)
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
