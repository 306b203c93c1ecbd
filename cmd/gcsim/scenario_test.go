package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"gcs/internal/rt"
	"gcs/internal/sim"
	"gcs/internal/simtest"
)

// parseScenario runs args through a fresh flag set the way both
// commands do.
func parseScenario(t *testing.T, horizon float64, args ...string) (sim.Config, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	sf := addScenarioFlags(fs, horizon)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return sf.config()
}

// TestScenarioFlagsToConfig pins the one flags -> sim.Config parser
// behind the default DES run and `realtime`: the defaults, every name
// lookup, and the errors only the flags can cause.
func TestScenarioFlagsToConfig(t *testing.T) {
	base := func(mut func(*sim.Config)) sim.Config {
		cfg := sim.Config{
			N: 16, Seed: 1, Horizon: 30, Rho: 0.01, MaxDelay: 0.01,
			Topology:    sim.TopologySpec{Kind: sim.TopoRing},
			Driver:      sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
			SampleEvery: 0.1,
		}
		cfg.Node.BeaconEvery = 0.1
		if mut != nil {
			mut(&cfg)
		}
		return cfg
	}
	cases := []struct {
		name    string
		args    []string
		want    sim.Config
		wantErr string
	}{
		{name: "defaults", want: base(nil)},
		{name: "scalars",
			args: []string{"-n", "9", "-seed", "7", "-horizon", "4", "-rho", "0.02", "-delay", "0.03",
				"-interval", "0.5", "-beacon", "0.2", "-sample", "0.25"},
			want: base(func(c *sim.Config) {
				c.N, c.Seed, c.Horizon, c.Rho, c.MaxDelay = 9, 7, 4, 0.02, 0.03
				c.Driver.Interval, c.Node.BeaconEvery, c.SampleEvery = 0.5, 0.2, 0.25
			})},
		{name: "grid defaults to the smallest covering square",
			args: []string{"-n", "25", "-topo", "grid"},
			want: base(func(c *sim.Config) { c.N = 25; c.Topology = sim.TopologySpec{Kind: sim.TopoGrid, W: 5, H: 5} })},
		{name: "grid width",
			args: []string{"-n", "24", "-topo", "grid", "-grid-w", "6"},
			want: base(func(c *sim.Config) { c.N = 24; c.Topology = sim.TopologySpec{Kind: sim.TopoGrid, W: 6, H: 4} })},
		{name: "grid width not dividing n",
			args: []string{"-n", "24", "-topo", "grid", "-grid-w", "5"}, wantErr: "grid width 5 does not divide n=24"},
		// The most square factorization, sim.SquareGridW, as `gcsim sweep`
		// and the sweep service build it.
		{name: "default grid width divides n",
			args: []string{"-n", "24", "-topo", "grid"},
			want: base(func(c *sim.Config) { c.N = 24; c.Topology = sim.TopologySpec{Kind: sim.TopoGrid, W: 4, H: 6} })},
		{name: "twochains + bangbang",
			args: []string{"-topo", "twochains", "-driver", "bangbang"},
			want: base(func(c *sim.Config) { c.Topology.Kind = sim.TopoTwoChains; c.Driver.Kind = sim.DriveBangBang })},
		{name: "line + constant",
			args: []string{"-topo", "line", "-driver", "constant"},
			want: base(func(c *sim.Config) { c.Topology.Kind = sim.TopoLine; c.Driver.Kind = sim.DriveConstant })},
		{name: "rotating star",
			args: []string{"-churn", "rotatingstar", "-period", "3", "-overlap", "0.75"},
			want: base(func(c *sim.Config) {
				c.Churn = sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 3, Overlap: 0.75}
			})},
		{name: "volatile carries its durations",
			args: []string{"-churn", "volatile", "-lifetime", "2", "-absence", "0.5", "-extra-edges", "7"},
			want: base(func(c *sim.Config) {
				c.Churn = sim.ChurnSpec{Kind: sim.ChurnVolatile, Lifetime: 2, Absence: 0.5, ExtraEdges: 7}
			})},
		{name: "fault plan",
			args: []string{"-fault-drop", "0.2", "-fault-crash-every", "5", "-fault-crash-stop", "-fault-until", "3"},
			want: base(func(c *sim.Config) {
				c.Faults = sim.FaultSpec{Drop: 0.2, CrashEvery: 5, CrashStop: true, Until: 3}
			})},
		{name: "unknown topology", args: []string{"-topo", "torus"}, wantErr: `unknown topology "torus"`},
		{name: "names are lower-case", args: []string{"-topo", "Ring"}, wantErr: `unknown topology "Ring"`},
		{name: "unknown driver", args: []string{"-driver", "sine"}, wantErr: `unknown driver "sine"`},
		{name: "unknown churn", args: []string{"-churn", "flap"}, wantErr: `unknown churn "flap"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := parseScenario(t, 30, tc.args...)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			simtest.AssertSameReport(t, "flags -> Config", got, tc.want)
		})
	}
}

// TestRealtimeScenarioFlags: realtime shares the parser (with its own
// default horizon), and rt accepts every churn kind the flags name.
func TestRealtimeScenarioFlags(t *testing.T) {
	for _, args := range [][]string{nil, {"-churn", "volatile"}, {"-churn", "rotatingstar"}} {
		cfg, err := parseScenario(t, 5, args...)
		if err != nil || cfg.Horizon != 5 {
			t.Fatalf("realtime %v: horizon %v, err %v", args, cfg.Horizon, err)
		}
		if _, err := rt.New(cfg); err != nil {
			t.Fatalf("realtime rejected %v: %v", args, err)
		}
	}
}
