package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json, with exactly the keys the file may have.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesTables pins BENCHMARK.json to the tables the
// program emits from: the same workloads with the same reasons, the same
// metrics with the same units, directions and bounds, in the same order.
func TestContractMatchesTables(t *testing.T) {
	c := readContract(t)
	if !reflect.DeepEqual(c.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(c.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", c.Command, c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", c.RunSeconds)
	}

	ws := workloads(env{seed: 1, workers: 2, smoke: true, workdir: t.TempDir()})
	if len(c.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, %d defined", len(c.Workloads), len(ws))
	}
	seen := map[string]bool{}
	for i, w := range ws {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), defined %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || seen[w.name] {
			t.Errorf("workload %q: bad or repeated name, or a why that is not one line of at most 200 characters (%d)", w.name, len(w.why))
		}
		seen[w.name] = true
	}

	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("declared %d+%d metrics, defined %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if got := c.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, defined %+v", i, got, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for i, d := range perLayer {
		if got := c.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, defined %+v", i, got, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || seen[d.Name] {
			t.Errorf("metric %+v: bad name, unit or direction, or a name used twice", d)
		}
		seen[d.Name] = true
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(perLayer), len(endToEnd))
	}
}

// TestSmoke runs every workload and every probe at toy sizes, once with
// tracing off and once traced, and checks structure only — never a
// timing: each declared metric is emitted exactly once per workload, no
// undeclared name is emitted, every check passes, and the last lines are
// the contract's result objects.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		t.Run("trace="+mode.trace, func(t *testing.T) {
			var out bytes.Buffer
			dir := t.TempDir()
			if code := realMain([]string{"-smoke", "--trace", mode.trace, "--seed", "3", "-out", dir}, &out); code != 0 {
				t.Fatalf("exit code %d\n%s", code, out.String())
			}
			declared := map[string]string{}
			for _, d := range mode.defs {
				declared[d.Name] = d.Unit
			}
			emitted := map[string]int{} // "workload name" -> lines
			var last []string
			for _, ln := range strings.Split(strings.TrimSpace(out.String()), "\n") {
				f := strings.Fields(ln)
				switch {
				case strings.HasPrefix(ln, "{"):
					last = append(last, ln)
				case len(f) >= 2 && (f[1] == "counts:" || f[1] == "checks:"):
					if f[1] == "checks:" && !strings.Contains(ln, " failed=0 fail_frac=0 ") {
						t.Errorf("failed checks: %s", ln)
					}
				case len(f) >= 5 && strings.HasPrefix(f[4], "n="):
					if unit, ok := declared[f[1]]; !ok || unit != f[3] {
						t.Errorf("undeclared metric or wrong unit: %s", ln)
					}
					emitted[f[0]+" "+f[1]]++
				default:
					t.Errorf("unexpected output line: %s", ln)
				}
			}
			ws := workloads(env{seed: 3, workers: 2, smoke: true, workdir: dir})
			for _, w := range ws {
				for _, d := range mode.defs {
					if n := emitted[w.name+" "+d.Name]; n != 1 {
						t.Errorf("%s %s emitted %d times, want once", w.name, d.Name, n)
					}
				}
			}
			if len(emitted) != len(ws)*len(mode.defs) || len(last) != len(ws) {
				t.Errorf("%d metric lines and %d result lines for %d workloads x %d metrics", len(emitted), len(last), len(ws), len(mode.defs))
			}
			for _, ln := range last {
				var obj map[string]json.RawMessage
				var l line
				if err := json.Unmarshal([]byte(ln), &obj); err != nil || json.Unmarshal([]byte(ln), &l) != nil {
					t.Fatalf("result line does not parse: %v\n%s", err, ln)
				}
				if len(obj) != 4 || !l.Correct || l.Attempted < 1 || l.Failed != 0 || len(l.Metrics) != len(mode.defs) {
					t.Errorf("result line: %d keys, %+v", len(obj), l)
				}
				for name, v := range l.Metrics {
					if declared[name] != v.Unit {
						t.Errorf("result line metric %s has unit %q, declared %q", name, v.Unit, declared[name])
					}
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "result.json")); err != nil {
				t.Error(err)
			}
			if _, err := os.Stat(filepath.Join(dir, "trace_daemon_sweep.json")); (err == nil) != (mode.trace == "1") {
				t.Errorf("trace file present = %v in mode trace=%s", err == nil, mode.trace)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, "work", "*")); len(left) != 0 {
				t.Errorf("work directory not cleaned: %v", left)
			}
		})
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope", "-smoke"}, {"-trace", "2"}, {"-seconds", "0"}, {"stray"}, {"-compare", "one.json"},
	} {
		var out bytes.Buffer
		if code := realMain(append(args, "-out", t.TempDir()), &out); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
	}
}
