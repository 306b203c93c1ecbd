package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestCanonicalShardsExcluded: the shard count is execution too, and the
// sharding sugar is only defaults, so a sharded config encodes byte for
// byte like its serial twin with the same effective MinDelay, whatever
// its shard count.
func TestCanonicalShardsExcluded(t *testing.T) {
	for _, base := range []Config{{N: 64, Seed: 9}, churnyConfig(3), {N: 40, Seed: 7, Faults: chaosPlan(t, "all")}} {
		base.Parallel, base.Shards = false, 0
		twin := base
		twin.MinDelay = base.WithDefaults().MaxDelay / 4
		want := twin.AppendCanonical(nil)
		for _, k := range []int{0, 1, 3, 7} {
			sharded := base
			sharded.Parallel, sharded.Shards = true, k
			if got := sharded.AppendCanonical(nil); !bytes.Equal(got, want) {
				t.Errorf("Parallel, Shards %d: encodes unlike its serial twin with MinDelay %v", k, twin.MinDelay)
			}
			twinK := twin
			twinK.Shards = k
			if got := twinK.AppendCanonical(nil); !bytes.Equal(got, want) {
				t.Errorf("Shards %d at MinDelay %v: the shard count leaked into the encoding", k, twin.MinDelay)
			}
		}
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
		// The sharding sugar's MinDelay default is physics.
		"parallel": func(c *Config) { c.Parallel = true },
		"minDelay": func(c *Config) { c.MinDelay = 0.004 },
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
// the golden configs' bytes (canonicalVersion 4): the serial ones from
// before the field existed, the sharded ones from after the shard count
// left the encoding, when they took their serial twins' addresses. A set
// field must change those bytes.
func TestCanonicalLowerBoundEpsOnlyWhenSet(t *testing.T) {
	want := map[string]string{
		"serial_ring_randomwalk":                 "17d246aa6cc79e53eda63a5cf0b76063b069749245ceb00622e3966cac397da9",
		"serial_line_constant":                   "0606036df9c6a3010f4d3e77f678bbf57145a8b98189e9dd3d5534af9d95ad16",
		"serial_grid_bangbang_volatile_gradient": "a9225b6a2ef1e3bae1cd12474baa533f7bf18fe1af826e243dfbba87e7073078",
		"serial_rotating_star":                   "3811cda0f5b279530bc248d0505090479176d4231c377dab1dc72f7bdf081eb2",
		"sharded_ring":                           "6328db3c83b249ae42abf6d630478844be5d77a5a059490837e9320ac847091f",
		"sharded_rotating_star_bangbang":         "22ab932f6452997b2d7e7e6675c09028eb985a06f82e754252ff3b55012799a5",
		"sharded_volatile_chaos_all":             "7e3e0c7fd21dc1e6e0d4d455a974d78abdee1717b4c024d8d35d9ae0d7bfe8f4",
		"sharded_one_shard":                      "c2f56bccb9afd99fac3a8b043487b127edb3fd39b92ce0929bb0c62a890bc95e",
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

// versionManifest pairs canonicalVersion with a digest of the golden
// reports: one line, "<version> <sha256>".
const versionManifest = "testdata/canonical_version"

// goldenGlobs are the golden reports a version answers for, from this
// package's directory: the scenario reports, and the gcsim CLI's stdout
// and artifacts, one directory per row.
var goldenGlobs = []string{"testdata/golden/*", "../../cmd/gcsim/testdata/*/*"}

// goldenDigest is the SHA-256 over the golden files in path order, each
// as its path from the module root, its length and its bytes.
func goldenDigest(t *testing.T) string {
	t.Helper()
	var files [][2]string // path from the module root, path from here
	for _, glob := range goldenGlobs {
		names, err := filepath.Glob(glob)
		if err != nil || len(names) == 0 {
			t.Fatalf("no golden files at %s (%v)", glob, err)
		}
		for _, name := range names {
			files = append(files, [2]string{filepath.ToSlash(filepath.Join("internal/sim", name)), name})
		}
	}
	slices.SortFunc(files, func(a, b [2]string) int { return strings.Compare(a[0], b[0]) })
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f[1])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", f[0], len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCanonicalVersionTracksGoldens makes the version decision a check:
// a change that moves a golden report changes the physics a stored fact
// answers for, so it must bump canonicalVersion, and a bump must come
// with a moved golden (a layout-only bump moves none, and then this
// test is where it says so). Both moving means a deliberate new version:
// commit the manifest line the failure prints.
func TestCanonicalVersionTracksGoldens(t *testing.T) {
	data, err := os.ReadFile(versionManifest)
	if err != nil {
		t.Fatal(err)
	}
	var version int
	var digest string
	if _, err := fmt.Sscanf(string(data), "%d %s", &version, &digest); err != nil {
		t.Fatalf("%s: %v", versionManifest, err)
	}
	got := goldenDigest(t)
	line := fmt.Sprintf("%d %s", canonicalVersion, got)
	switch {
	case version == canonicalVersion && digest != got:
		t.Errorf("the golden reports moved under canonicalVersion %d: bump it (stored facts answer for the old physics), then commit %q to %s", version, fmt.Sprintf("%d %s", canonicalVersion+1, got), versionManifest)
	case version != canonicalVersion && digest == got:
		t.Errorf("canonicalVersion moved from %d to %d but no golden report did: revert the bump, or pin the new layout with a golden cell it moves", version, canonicalVersion)
	case version != canonicalVersion:
		t.Errorf("canonicalVersion %d and the goldens both moved: commit %q to %s", canonicalVersion, line, versionManifest)
	}
}
