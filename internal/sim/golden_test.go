package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gcs/internal/simtest"
)

// update regenerates testdata/golden from the current code instead of
// diffing against it. The committed files are regenerable, never
// hand-edited: CI reruns `-update` and fails on any git diff.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current code")

// chaosPlan returns the named canonical fault plan.
func chaosPlan(t *testing.T, name string) FaultSpec {
	t.Helper()
	for _, p := range ChaosPlans() {
		if p.Name == name {
			return p.Spec
		}
	}
	t.Fatalf("no chaos plan %q", name)
	return FaultSpec{}
}

// TestGoldenReports pins a scenario × harness matrix of reports across
// commits: every other determinism suite compares a rerun against a
// rerun of the same code, so only a committed file notices a physics
// change between two commits. Each cell is small (N <= 64, horizon <=
// 10) and lives in its own file, so a deliberate physics change shows
// up as a reviewable diff of exactly the cells it moved.
func TestGoldenReports(t *testing.T) {
	for _, c := range goldenCells(t) {
		t.Run(c.name, func(t *testing.T) {
			var want SkewReport
			checkGolden(t, c.name, mustRun(t, c.cfg), &want)
		})
	}
	t.Run("lowerbound_n32", func(t *testing.T) {
		got := mustLowerBound(t, lowerBoundBase(1), 1, 32)[0]
		var want LowerBoundResult
		checkGolden(t, "lowerbound_n32", got, &want)
	})
}

// goldenCell is one row of the golden scenario matrix.
type goldenCell struct {
	name string
	cfg  Config
}

// goldenCells returns the scenario x harness matrix TestGoldenReports
// pins, one file per cell.
func goldenCells(t *testing.T) []goldenCell {
	ring := TopologySpec{Kind: TopoRing}
	walk := DriverSpec{Kind: DriveRandomWalk, Interval: 0.5}
	volatile := ChurnSpec{Kind: ChurnVolatile, Lifetime: 1.5, Absence: 1.0, ExtraEdges: 16}
	star := ChurnSpec{Kind: ChurnRotatingStar, Period: 2, Overlap: 0.5}
	return []goldenCell{
		{"serial_ring_randomwalk", Config{
			N: 32, Seed: 1, Horizon: 10, Topology: ring, Driver: walk}},
		{"serial_line_constant", Config{
			N: 16, Seed: 2, Horizon: 8, Topology: TopologySpec{Kind: TopoLine}}},
		{"serial_grid_bangbang_volatile_gradient", Config{
			N: 24, Seed: 3, Horizon: 10, Rho: 0.02, MaxDelay: 0.02,
			Topology: TopologySpec{Kind: TopoGrid, W: 6, H: 4},
			Driver:   DriverSpec{Kind: DriveBangBang, Interval: 0.7},
			Churn:    volatile, CheckGradient: true}},
		{"serial_rotating_star", Config{
			N: 16, Seed: 4, Horizon: 10, Driver: walk, Churn: star}},
		{"sharded_ring", Config{
			N: 48, Seed: 5, Horizon: 8, Topology: ring, Driver: walk,
			Parallel: true, Shards: 4}},
		{"sharded_rotating_star_bangbang", Config{
			N: 20, Seed: 6, Horizon: 8,
			Driver: DriverSpec{Kind: DriveBangBang, Interval: 0.7}, Churn: star,
			Parallel: true, Shards: 3}},
		{"sharded_volatile_chaos_all", Config{
			N: 40, Seed: 7, Horizon: 10, Topology: ring, Driver: walk,
			Churn: volatile, Faults: chaosPlan(t, "all"),
			Parallel: true, Shards: 4}},
		// One shard on the windowed engine: the report of a sharded config
		// does not depend on its shard count, one included.
		{"sharded_one_shard", Config{
			N: 24, Seed: 10, Horizon: 10,
			Topology: TopologySpec{Kind: TopoGrid, W: 6, H: 4}, Driver: walk,
			Churn: volatile, Faults: chaosPlan(t, "all"),
			Parallel: true, Shards: 1}},
		{"serial_chaos_all", Config{
			N: 32, Seed: 8, Horizon: 10, Topology: ring, Driver: walk,
			Faults: chaosPlan(t, "all")}},
		{"serial_crashstop", Config{
			N: 32, Seed: 9, Horizon: 10, Topology: ring, Driver: walk,
			Faults: chaosPlan(t, "crashstop")}},
	}
}

// checkGolden diffs got against testdata/golden/<name>.golden decoded
// into want (a pointer to got's type), or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got, want any) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		var b strings.Builder
		encodeGolden(&b, "", reflect.ValueOf(got))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/sim -run TestGoldenReports -update)", err)
	}
	fields := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		k, v, ok := strings.Cut(line, " = ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		fields[k] = v
	}
	if err := decodeGolden(fields, "", reflect.ValueOf(want).Elem()); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(fields) != 0 {
		t.Fatalf("%s: fields not in %T: %v", path, got, fields)
	}
	simtest.AssertSameReport(t, name+" vs committed golden", got, reflect.ValueOf(want).Elem().Interface())
}

// The golden format is one `Path.To.Field = value` line per leaf, in
// struct order. Floats use the shortest decimal that round-trips
// exactly, which also spells +Inf/-Inf/NaN (JSON cannot); a float slice
// is `nil` or a bracketed space-separated list. A field the JSON report
// leaves out (`json:"-"`, the lower bound's skew series, which the
// gcsim lowerbound golden pins as CSV) is left out here too.

// goldenField reports whether struct field i of t is in the format.
func goldenField(t reflect.Type, i int) bool { return t.Field(i).Tag.Get("json") != "-" }

func fmtFloat(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func encodeGolden(b *strings.Builder, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !goldenField(v.Type(), i) {
				continue
			}
			p := v.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			encodeGolden(b, p, v.Field(i))
		}
	case reflect.Slice:
		if v.IsNil() {
			fmt.Fprintf(b, "%s = nil\n", path)
			return
		}
		elems := make([]string, v.Len())
		for i := range elems {
			elems[i] = fmtFloat(v.Index(i).Float())
		}
		fmt.Fprintf(b, "%s = [%s]\n", path, strings.Join(elems, " "))
	case reflect.Float64:
		fmt.Fprintf(b, "%s = %s\n", path, fmtFloat(v.Float()))
	default:
		fmt.Fprintf(b, "%s = %v\n", path, v.Interface())
	}
}

// decodeGolden fills v from fields, deleting every key it consumes so
// the caller can reject leftovers.
func decodeGolden(fields map[string]string, path string, v reflect.Value) error {
	if v.Kind() == reflect.Struct {
		for i := 0; i < v.NumField(); i++ {
			if !goldenField(v.Type(), i) {
				continue
			}
			p := v.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			if err := decodeGolden(fields, p, v.Field(i)); err != nil {
				return err
			}
		}
		return nil
	}
	s, ok := fields[path]
	if !ok {
		return fmt.Errorf("missing field %s", path)
	}
	delete(fields, path)
	var err error
	switch v.Kind() {
	case reflect.Slice:
		if s == "nil" {
			return nil
		}
		elems := strings.Fields(strings.Trim(s, "[]"))
		out := reflect.MakeSlice(v.Type(), len(elems), len(elems))
		for i, e := range elems {
			var x float64
			if x, err = strconv.ParseFloat(e, 64); err != nil {
				return fmt.Errorf("%s[%d]: %v", path, i, err)
			}
			out.Index(i).SetFloat(x)
		}
		v.Set(out)
	case reflect.Float64:
		var x float64
		x, err = strconv.ParseFloat(s, 64)
		v.SetFloat(x)
	case reflect.Int:
		var x int64
		x, err = strconv.ParseInt(s, 10, 64)
		v.SetInt(x)
	case reflect.Uint64:
		var x uint64
		x, err = strconv.ParseUint(s, 10, 64)
		v.SetUint(x)
	default:
		err = fmt.Errorf("unsupported kind %v", v.Kind())
	}
	if err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	return nil
}
