package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCanonicalDefaultInsensitive: an unset field and its explicit
// default are the same cell — the store must serve one for the other.
func TestCanonicalDefaultInsensitive(t *testing.T) {
	sparse := Config{N: 16, Seed: 3}
	full := sparse.WithDefaults()
	if !bytes.Equal(sparse.AppendCanonical(nil), full.AppendCanonical(nil)) {
		t.Fatal("sparse config and its defaulted form encode differently")
	}
}

// TestCanonicalWorkersExcluded: Workers is pure execution (reports are
// worker-invariant), so runs of one cell at different worker counts
// must content-address identically and dedupe in the store.
func TestCanonicalWorkersExcluded(t *testing.T) {
	a := Config{N: 64, Seed: 9, Parallel: true, Shards: 4, Workers: 1}
	b := a
	b.Workers = 8
	if !bytes.Equal(a.AppendCanonical(nil), b.AppendCanonical(nil)) {
		t.Fatal("worker count leaked into the canonical encoding")
	}
}

// TestCanonicalDistinguishesPhysics: every field that changes the
// simulated execution must change the encoding — aliasing two physics
// onto one content address would serve wrong cached results.
func TestCanonicalDistinguishesPhysics(t *testing.T) {
	base := Config{N: 64, Seed: 9}
	ref := base.AppendCanonical(nil)
	for name, mut := range map[string]func(*Config){
		"n":        func(c *Config) { c.N = 65 },
		"seed":     func(c *Config) { c.Seed = 10 },
		"horizon":  func(c *Config) { c.Horizon = 20 },
		"rho":      func(c *Config) { c.Rho = 0.02 },
		"delay":    func(c *Config) { c.MaxDelay = 0.02 },
		"topology": func(c *Config) { c.Topology.Kind = TopoRing },
		"driver":   func(c *Config) { c.Driver.Kind = DriveBangBang },
		"churn": func(c *Config) {
			c.Churn = ChurnSpec{Kind: ChurnVolatile, Lifetime: 1, Absence: 1, ExtraEdges: 4}
		},
		"beacon":   func(c *Config) { c.Node.BeaconEvery = 0.2 },
		"sample":   func(c *Config) { c.SampleEvery = 0.25 },
		"gradient": func(c *Config) { c.CheckGradient = true },
		"parallel": func(c *Config) { c.Parallel = true },
		"shards":   func(c *Config) { c.Parallel = true; c.Shards = 5 },
		"minDelay": func(c *Config) { c.Parallel = true; c.MinDelay = 0.004 },
		"faults":   func(c *Config) { c.Faults.Drop = 0.1 },
	} {
		cfg := base
		mut(&cfg)
		if bytes.Equal(ref, cfg.AppendCanonical(nil)) {
			t.Errorf("%s: physics change did not change the canonical encoding", name)
		}
	}
}

// TestCanonicalStable: the encoding of one config is identical across
// calls and grows dst in place.
func TestCanonicalStable(t *testing.T) {
	cfg := churnyConfig(7)
	a := cfg.AppendCanonical(nil)
	b := cfg.AppendCanonical(make([]byte, 0, 512))
	if !bytes.Equal(a, b) {
		t.Fatal("canonical encoding differs across calls")
	}
	if a[0] != canonicalVersion {
		t.Fatalf("encoding does not lead with the version byte: %d", a[0])
	}
	withPrefix := cfg.AppendCanonical([]byte("xx"))
	if !bytes.Equal(withPrefix[2:], a) {
		t.Fatal("AppendCanonical does not append to dst")
	}
}

// TestCanonicalLowerBoundEpsOnlyWhenSet: Config.LowerBoundEps joined
// the encoding without a version bump, so a zero field must leave every
// existing content address as it was. The digests below are SHA-256 of
// the golden configs' bytes from before the field existed
// (canonicalVersion 4); a set field must change those bytes.
func TestCanonicalLowerBoundEpsOnlyWhenSet(t *testing.T) {
	want := map[string]string{
		"serial_ring_randomwalk":                 "17d246aa6cc79e53eda63a5cf0b76063b069749245ceb00622e3966cac397da9",
		"serial_line_constant":                   "0606036df9c6a3010f4d3e77f678bbf57145a8b98189e9dd3d5534af9d95ad16",
		"serial_grid_bangbang_volatile_gradient": "a9225b6a2ef1e3bae1cd12474baa533f7bf18fe1af826e243dfbba87e7073078",
		"serial_rotating_star":                   "3811cda0f5b279530bc248d0505090479176d4231c377dab1dc72f7bdf081eb2",
		"sharded_ring":                           "bd89becc24c178b7d4bb076ed1a9f16c89ed1ea8d41257de6366063f9b833bcf",
		"sharded_rotating_star_bangbang":         "d8566ab1dbf5b5fb12fcd9079434c69f8f68e3cc5aac8abd3fe49325988f9b48",
		"sharded_volatile_chaos_all":             "e972790a2779bffe55f2063c5d8fc36642d2a280e05b9728d78ccfab12b9a1cd",
		"sharded_one_shard":                      "745f8af9a3565300e4e2665206ba7e1915dec84214c2ed446e30e755bbba79f3",
		"serial_chaos_all":                       "c98f57308e1be43050b207b4839d4248f20d35b95f1e33f3acb01a7417b11392",
		"serial_crashstop":                       "857b06542a211ada07006a985f5fed6db9e0af006f36abc415f19f5957130fc1",
	}
	if canonicalVersion != 4 {
		t.Fatalf("canonicalVersion %d: the pinned digests are version 4's", canonicalVersion)
	}
	cells := goldenCells(t)
	if len(cells) != len(want) {
		t.Fatalf("%d golden cells, %d pinned digests", len(cells), len(want))
	}
	for _, c := range cells {
		enc := c.cfg.AppendCanonical(nil)
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != want[c.name] {
			t.Errorf("%s: canonical digest %s, want %s", c.name, got, want[c.name])
		}
		set := c.cfg
		set.LowerBoundEps = 1e-5
		if bytes.Equal(enc, set.AppendCanonical(nil)) {
			t.Errorf("%s: a set LowerBoundEps did not change the canonical encoding", c.name)
		}
	}
}
