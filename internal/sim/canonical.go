package sim

import (
	"encoding/binary"
	"math"
)

// canonicalVersion is the format tag AppendCanonical prefixes its
// output with. Bump it whenever a field is added to Config (or to any
// struct it embeds) or the encoding order changes: the canonical bytes
// are the basis of the result store's content addresses, and a silent
// layout change would alias old cached results onto new physics. A
// trailing field encoded only when non-zero (LowerBoundEps) needs no
// bump: every config from before it encodes as it did, and every config
// that sets it encodes longer than any of those.
//
// 1 -> 2: the trailing byte for the transport-batching opt-out is gone
// with that Config field, and the serial transport now drops a message
// at its delivery event instead of cancelling that event when the edge
// goes, so a serial cell with drops reports EventsExecuted higher by its
// Transport.Dropped (nothing else in the report moves). A version-1
// fact must not answer a version-2 run.
//
// 2 -> 3: Config lost the gradient check's radius and source-count
// fields, and the encoding their two words. No report moves (nothing
// that stores facts ever set them), but one version names one layout,
// so a version-2 fact is recomputed once instead of being kept under a
// layout this binary no longer writes.
//
// 3 -> 4: the serial harness drew every delay from one shared stream in
// global send order; it now draws each from the sender's own stream
// (transport.Delays), as the sharded harness always did. The layout is
// unchanged, but every serial report with traffic moves, so a version-3
// serial fact no longer matches the code. Sharded facts still would;
// they are recomputed once with the rest.
// Within 4 the shard count left the encoding: a sharded cell took its
// serial twin's address, which no stored fact has (no job sets MinDelay).
const canonicalVersion = 4

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
//   - Workers and Shards are execution (the invariance suites pin that
//     they never change a report), so their slots always hold the serial
//     values (false, 0); the sharding sugar's MinDelay is in MinDelay.
//   - Floats are encoded as IEEE-754 bits, making the map total (Inf
//     and NaN included) and exact — no formatting round-trip.
//
// Every remaining field is physics (Seed, delay law, topology, driver,
// churn, node parameters, fault plan, whether the gradient is checked,
// the lower-bound adversary) and is encoded in declared order behind a
// version byte.
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

	dst = appendBool(dst, false)
	dst = appendU64(dst, 0)
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
	if d.LowerBoundEps != 0 {
		dst = appendF64(dst, d.LowerBoundEps)
	}
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
