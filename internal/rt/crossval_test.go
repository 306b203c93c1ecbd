//go:build goexperiment.synctest

package rt

import (
	"math"
	"testing"
	"testing/synctest"

	"gcs/internal/des"
	"gcs/internal/sim"
)

// runDES validates cfg and runs it on the DES harness.
func runDES(t *testing.T, cfg sim.Config) sim.SkewReport {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return sim.NewArena().Run(cfg)
}

// TestCrossHarnessValidation is the acceptance gate for the real-time
// runtime: the same scenario configs run through both harnesses — the
// discrete-event simulation and the goroutine-per-node real-time
// runtime — and both executions must satisfy the same analytic
// guarantees (GlobalSkewBound, GradientBound(1), drift-band containment,
// fault re-convergence). The harnesses schedule differently, so reports
// are not compared field by field; the paper's bounds are the common
// contract both must honor.
func TestCrossHarnessValidation(t *testing.T) {
	scenarios := []struct {
		name    string
		cfg     sim.Config
		faulted bool
	}{
		{
			name: "Ring16BangBang",
			cfg: sim.Config{
				N: 16, Seed: 41, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveBangBang, Interval: 1},
			},
		},
		{
			name: "Grid4x4RandomWalk",
			cfg: sim.Config{
				N: 16, Seed: 42, Horizon: 10, Rho: 0.02, MaxDelay: 0.02,
				Topology: sim.TopologySpec{Kind: sim.TopoGrid, W: 4, H: 4},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
			},
		},
		{
			name: "RotatingStar12",
			cfg: sim.Config{
				N: 12, Seed: 43, Horizon: 8, Rho: 0.01, MaxDelay: 0.01,
				Churn: sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
			},
		},
		{
			name: "VolatileRing16",
			cfg: sim.Config{
				N: 16, Seed: 47, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
				Churn:    sim.ChurnSpec{Kind: sim.ChurnVolatile, Lifetime: 1.5, Absence: 1, ExtraEdges: 10},
			},
		},
		{
			name: "FaultedRing12",
			cfg: sim.Config{
				N: 12, Seed: 44, Horizon: 12, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveBangBang, Interval: 1},
				Faults:   sim.FaultSpec{Drop: 0.05, CrashEvery: 4, CrashDowntime: 0.5},
			},
			faulted: true,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			desRep := runDES(t, sc.cfg)
			rtRep := runBubble(t, sc.cfg)

			for _, h := range []struct {
				name string
				rep  sim.SkewReport
			}{{"des", desRep}, {"rt", rtRep}} {
				if h.rep.TotalBeacons == 0 || h.rep.Transport.Delivered == 0 {
					t.Fatalf("%s: degenerate execution: %+v", h.name, h.rep)
				}
				if sc.faulted {
					// Faults may push the skew past the bound mid-run; the
					// contract is graceful degradation: finite re-convergence.
					if h.rep.Faults.Total() == 0 {
						t.Errorf("%s: fault plan injected nothing", h.name)
					}
					if math.IsInf(h.rep.ReconvergenceTime, 1) {
						t.Errorf("%s: never re-converged (final skew %v, bound %v)",
							h.name, h.rep.FinalGlobalSkew, h.rep.Bound)
					}
					continue
				}
				if h.rep.MaxGlobalSkew > h.rep.Bound {
					t.Errorf("%s: global skew %v above bound %v", h.name, h.rep.MaxGlobalSkew, h.rep.Bound)
				}
				if g1 := sc.cfg.GradientBound(1); h.rep.MaxAdjacentSkew > g1 {
					t.Errorf("%s: adjacent skew %v above gradient bound %v", h.name, h.rep.MaxAdjacentSkew, g1)
				}
				if h.rep.MinRateSeen < 1-sc.cfg.Rho-1e-12 || h.rep.MaxRateSeen > 1+sc.cfg.Rho+1e-12 {
					t.Errorf("%s: rates [%v, %v] escaped the drift band", h.name, h.rep.MinRateSeen, h.rep.MaxRateSeen)
				}
			}

			// Emit the comparison table (visible under -v; the PAPER.md
			// cross-validation table is refreshed from this output).
			t.Logf("des: maxSkew=%.4f adjSkew=%.4f bound=%.3f delivered=%d reconv=%.2f",
				desRep.MaxGlobalSkew, desRep.MaxAdjacentSkew, desRep.Bound,
				desRep.Transport.Delivered, desRep.ReconvergenceTime)
			t.Logf("rt:  maxSkew=%.4f adjSkew=%.4f bound=%.3f delivered=%d reconv=%.2f",
				rtRep.MaxGlobalSkew, rtRep.MaxAdjacentSkew, rtRep.Bound,
				rtRep.Transport.Delivered, rtRep.ReconvergenceTime)

			// The two harnesses implement the same physics, so coarse
			// magnitudes must agree: skews within a small factor of each
			// other (they share the algorithm, parameters, and time span).
			if desRep.MaxGlobalSkew > 0 && rtRep.MaxGlobalSkew > 0 {
				ratio := rtRep.MaxGlobalSkew / desRep.MaxGlobalSkew
				if ratio < 0.1 || ratio > 10 {
					t.Errorf("harness skews disagree by %vx: des %v, rt %v",
						ratio, desRep.MaxGlobalSkew, rtRep.MaxGlobalSkew)
				}
			}
		})
	}
}

// TestFaultChainsMatchDES pins what sharing fault.Injector buys: the
// crash/recover and rate-excursion chains read only their own per-node
// streams and the clock, so from the same seed the DES and the real-time
// runtime inject exactly the same number of crashes, recoveries and
// excursions — even though everything else about the two executions
// (event order, delays, skew) differs.
func TestFaultChainsMatchDES(t *testing.T) {
	plans := map[string]sim.FaultSpec{
		"crash+rates": {CrashEvery: 3, CrashDowntime: 0.5,
			RateExcursionEvery: 2, RateExcursionFactor: 3, RateExcursionFor: 0.5},
		"crashstop": {CrashEvery: 6, CrashStop: true},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			cfg := sim.Config{
				N: 12, Seed: 45, Horizon: 12, Rho: 0.01, MaxDelay: 0.01,
				Topology: sim.TopologySpec{Kind: sim.TopoRing},
				Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
				Faults:   plan,
			}
			want, got := runDES(t, cfg).Faults, runBubble(t, cfg).Faults
			if want.Crashes == 0 {
				t.Fatalf("plan injected no crash: %+v", want)
			}
			if got.Crashes != want.Crashes || got.Recoveries != want.Recoveries || got.RateExcursions != want.RateExcursions {
				t.Errorf("fault chains diverged between harnesses:\n des %+v\n rt  %+v", want, got)
			}
		})
	}
}

// TestDriverChainsMatchDES pins the shared stream layout (sim.Streams):
// the rate-driver chains read only their own per-node streams, so from
// one seed a random-walk ring runs through the same rates in the DES and
// in the real-time runtime, and both report the same extreme rates. A
// harness that forked its driver stream elsewhere would draw others. The
// test replays the chains to check that the horizon falls between driver
// steps, clear of the runtime's shutdown grace.
func TestDriverChainsMatchDES(t *testing.T) {
	cfg := sim.Config{
		N: 12, Seed: 47, Horizon: 6.5, Rho: 0.01, MaxDelay: 0.01,
		Topology: sim.TopologySpec{Kind: sim.TopoRing},
		Driver:   sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
	}
	var st sim.Streams
	st.Fork(des.NewRand(cfg.Seed))
	for i := 0; i < cfg.N; i++ {
		var d sim.DriverState
		d.Start(i, &st.Drive)
		for at := 0.0; at < cfg.Horizon+0.01; {
			_, next := d.Step(cfg.Driver, cfg.Rho)
			if at += next; math.Abs(at-cfg.Horizon) < 0.01 {
				t.Fatalf("node %d steps its driver at %v, within 0.01 of the horizon", i, at)
			}
		}
	}
	want, got := runDES(t, cfg), runBubble(t, cfg)
	if want.MinRateSeen == want.MaxRateSeen {
		t.Fatalf("driver never changed the rate: %v", want.MinRateSeen)
	}
	if got.MinRateSeen != want.MinRateSeen || got.MaxRateSeen != want.MaxRateSeen {
		t.Errorf("driver chains diverged between harnesses: des rates [%v, %v], rt [%v, %v]",
			want.MinRateSeen, want.MaxRateSeen, got.MinRateSeen, got.MaxRateSeen)
	}
}

// TestChurnChainsMatchDES pins what sharing sim.ChurnState buys: its
// steps read only their own streams and hub counter, so from the same
// seed the DES and the real-time runtime add and remove exactly the same
// number of edges. Horizons fall between steps, clear of the runtime's
// shutdown grace.
func TestChurnChainsMatchDES(t *testing.T) {
	for name, cfg := range map[string]sim.Config{
		"rotatingstar": {
			N: 12, Seed: 48, Horizon: 7.5, Rho: 0.01, MaxDelay: 0.01,
			Churn: sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
		},
		"volatile": {
			N: 16, Seed: 49, Horizon: 10, Rho: 0.01, MaxDelay: 0.01,
			Topology: sim.TopologySpec{Kind: sim.TopoRing},
			Churn:    sim.ChurnSpec{Kind: sim.ChurnVolatile, Lifetime: 1.5, Absence: 1, ExtraEdges: 10},
		},
	} {
		t.Run(name, func(t *testing.T) {
			desRep := runDES(t, cfg)
			rtRep := runBubble(t, cfg)
			if desRep.EdgeAdds == 0 || desRep.EdgeRemoves == 0 {
				t.Fatalf("no churn: adds=%d removes=%d", desRep.EdgeAdds, desRep.EdgeRemoves)
			}
			if rtRep.EdgeAdds != desRep.EdgeAdds || rtRep.EdgeRemoves != desRep.EdgeRemoves {
				t.Errorf("churn diverged between harnesses: des adds=%d removes=%d, rt adds=%d removes=%d",
					desRep.EdgeAdds, desRep.EdgeRemoves, rtRep.EdgeAdds, rtRep.EdgeRemoves)
			}
		})
	}
}

// TestNeighborMaxMatchesScanAfterChurn pins the event-maintained Γ_u in
// the harness where discover events are genuinely delayed: churn
// writes the router first and the endpoints learn of it through their
// queues. After a rotating-star run has quiesced, each node's cached
// neighbor maximum must equal a fresh scan of the router's adjacency
// (or have a rescan pending). The horizon falls 0.05 after the last
// teardown, while the departed hub's estimates are still the largest
// some nodes hold — a lost discover(remove) shows as a cached maximum
// above the scan; two beacon rounds later fresh estimates would have
// overtaken it and hidden the loss.
func TestNeighborMaxMatchesScanAfterChurn(t *testing.T) {
	r, err := New(sim.Config{
		N: 12, Seed: 46, Horizon: 7.3, Rho: 0.01, MaxDelay: 0.01,
		Driver: sim.DriverSpec{Kind: sim.DriveRandomWalk, Interval: 1},
		Churn:  sim.ChurnSpec{Kind: sim.ChurnRotatingStar, Period: 1, Overlap: 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rep sim.SkewReport
	synctest.Run(func() { rep = r.Run() })
	if rep.EdgeRemoves == 0 || rep.TotalMessages == 0 {
		t.Fatalf("degenerate run: removes=%d messages=%d", rep.EdgeRemoves, rep.TotalMessages)
	}
	for _, h := range r.hosts {
		if err := h.node.CheckNeighborMax(); err != nil {
			t.Error(err)
		}
	}
}
