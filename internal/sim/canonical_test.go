package sim

import (
	"bytes"
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
