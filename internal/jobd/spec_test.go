package jobd

import (
	"fmt"
	"strings"
	"testing"

	"gcs/internal/sim"
)

// tinySpec is a fast two-cell-ish grid used across the daemon tests.
func tinySpec() SweepSpec {
	return SweepSpec{
		Ns:      []int{8},
		Topos:   []string{"ring"},
		Drivers: []string{"constant"},
		Churns:  []string{"none"},
		Seed:    7,
		Horizon: 2,
	}
}

// TestSpecCellsGridSemantics pins the CLI grid contract: loop order,
// per-index seeds, Workers=1, and the rotating star emitted once per
// (n, driver) on the first topology, labeled "-".
func TestSpecCellsGridSemantics(t *testing.T) {
	spec := SweepSpec{
		Ns:      []int{8, 12},
		Topos:   []string{"ring", "line"},
		Drivers: []string{"constant", "bangbang"},
		Churns:  []string{"none", "rotatingstar"},
		Seed:    3,
		Horizon: 2,
	}
	cells, err := spec.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Per n: topo ring emits none+rotatingstar for each driver (4),
	// topo line emits only none for each driver (2).
	if want := 2 * (4 + 2); len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	wantNames := []string{
		"ring/constant/none/n=8", "-/constant/rotatingstar/n=8",
		"ring/bangbang/none/n=8", "-/bangbang/rotatingstar/n=8",
		"line/constant/none/n=8", "line/bangbang/none/n=8",
		"ring/constant/none/n=12", "-/constant/rotatingstar/n=12",
		"ring/bangbang/none/n=12", "-/bangbang/rotatingstar/n=12",
		"line/constant/none/n=12", "line/bangbang/none/n=12",
	}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d named %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Cfg.Seed != sim.CellSeed(3, i) {
			t.Errorf("cell %d seed %d, want CellSeed(3, %d)", i, c.Cfg.Seed, i)
		}
		if c.Cfg.Workers != 1 {
			t.Errorf("cell %d has Workers=%d, want 1", i, c.Cfg.Workers)
		}
		if err := c.Cfg.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
}

// TestSpecNormalization: cosmetic spelling differences change neither
// the cells nor the job identity.
func TestSpecNormalization(t *testing.T) {
	a := tinySpec()
	b := tinySpec()
	b.Topos = []string{" Ring "}
	b.Drivers = []string{"", "CONSTANT"}
	idA, err := a.ID()
	if err != nil {
		t.Fatal(err)
	}
	idB, err := b.ID()
	if err != nil {
		t.Fatal(err)
	}
	if idA != idB {
		t.Fatalf("normalized specs got different IDs: %s vs %s", idA, idB)
	}
	c := tinySpec()
	c.Seed = 8
	if idC, _ := c.ID(); idC == idA {
		t.Fatal("different seeds share a job ID")
	}
}

// TestSpecErrors: empty lists, unknown names, and over-cap grids are
// rejected before any cell runs.
func TestSpecErrors(t *testing.T) {
	empty := tinySpec()
	empty.Drivers = nil
	if _, err := empty.Cells(); err == nil {
		t.Error("empty driver list accepted")
	}
	unknown := tinySpec()
	unknown.Topos = []string{"torus"}
	if _, err := unknown.Cells(); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Errorf("unknown topology not rejected by name: %v", err)
	}
	huge := tinySpec()
	for i := 0; i < 300; i++ {
		huge.Ns = append(huge.Ns, 8+i)
		huge.Topos = append(huge.Topos, fmt.Sprintf("t%d", i))
	}
	if _, err := huge.Cells(); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Errorf("over-cap grid not rejected: %v", err)
	}
	atCaps := tinySpec()
	atCaps.Ns = []int{MaxNodes}
	atCaps.Horizon, atCaps.Sample = MaxSamples, 1
	if _, err := atCaps.Cells(); err != nil {
		t.Errorf("spec at the node and sample caps rejected: %v", err)
	}
	badCell := tinySpec()
	badCell.Rho = -1
	badCell.Ns = []int{8, 12}
	cells, err := badCell.Cells()
	if err != nil {
		t.Fatal(err)
	}
	err = sim.ValidateCells(cells)
	for i := range cells {
		if want := fmt.Sprintf("sweep cell %d (", i); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("spec with invalid cell configs: error %v does not name %q", err, want)
		}
	}
}

// TestSpecRoundTrip: canonical JSON decodes back to a spec with the
// same identity, so resumed jobs land on their original ID.
func TestSpecRoundTrip(t *testing.T) {
	spec := SweepSpec{
		Ns:      []int{8},
		Topos:   []string{"Grid "},
		Drivers: []string{"randomwalk"},
		Churns:  []string{"volatile"},
		Seed:    11,
		Horizon: 2,
	}
	spec.Faults.Drop = 0.05
	data, err := spec.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := spec.ID()
	id2, _ := back.ID()
	if id1 != id2 {
		t.Fatalf("ID changed across the canonical round trip: %s vs %s", id1, id2)
	}
}

// TestDecodeSpecRejects: unknown fields and trailing garbage are
// errors, not silent no-ops.
func TestDecodeSpecRejects(t *testing.T) {
	if _, err := DecodeSpec([]byte(`{"ns":[8],"topoz":["ring"]}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := DecodeSpec([]byte(`{"ns":[8]} {"ns":[9]}`)); err == nil {
		t.Error("trailing data accepted")
	}
	if _, err := DecodeSpec([]byte(`[1,2,3`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}
