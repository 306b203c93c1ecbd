package fault

import (
	"math"
	"reflect"
	"slices"
	"testing"
)

// FuzzFaultSpec fuzzes the fault plan's boundary contract: WithDefaults
// is total and idempotent, Validate classifies every input without
// panicking, and any accepted plan keeps its invariants (probabilities
// in range, factors above 1, the injection window inside the horizon).
func FuzzFaultSpec(f *testing.F) {
	f.Add(0.1, 0.05, 0.02, 4.0, 3.0, 0.5, false, 5.0, 3.0, 0.5, 6.0, 12.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, false, 0.0, 0.0, 0.0, 0.0, 10.0)
	f.Add(1.5, -0.2, 0.9, 0.5, -1.0, 2.0, true, 4.0, 1.0, 0.0, 20.0, 10.0)
	// A NaN downtime is Validate's to reject, not an idempotence failure.
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, math.NaN(), false, 0.0, 0.0, 0.0, 5.0, 10.0)
	f.Fuzz(func(t *testing.T, drop, dup, spike, spikeFactor, crashEvery, crashDowntime float64,
		crashStop bool, excEvery, excFactor, excFor, until, horizon float64) {
		spec := Spec{
			Drop: drop, Dup: dup, DelaySpike: spike, SpikeFactor: spikeFactor,
			CrashEvery: crashEvery, CrashDowntime: crashDowntime, CrashStop: crashStop,
			RateExcursionEvery: excEvery, RateExcursionFactor: excFactor,
			RateExcursionFor: excFor, Until: until,
		}
		d := spec.WithDefaults(horizon)
		if dd := d.WithDefaults(horizon); !slices.Equal(specBits(dd), specBits(d)) {
			t.Fatalf("WithDefaults not idempotent: %+v -> %+v", d, dd)
		}
		if !spec.Enabled() && !slices.Equal(specBits(d), specBits(spec)) {
			t.Fatalf("defaults perturbed a disabled spec: %+v -> %+v", spec, d)
		}
		if err := d.Validate(horizon); err != nil {
			return
		}
		// Accepted plans keep the invariants injection relies on.
		for _, v := range specBits(d) {
			if math.IsNaN(math.Float64frombits(v)) {
				t.Fatalf("accepted a plan carrying NaN: %+v", d)
			}
		}
		if d.Enabled() {
			if !(d.Until > 0) || d.Until > horizon {
				t.Fatalf("accepted Until %v outside (0, %v]", d.Until, horizon)
			}
			if d.DelaySpike > 0 && d.SpikeFactor <= 1 {
				t.Fatalf("accepted spike plan with factor %v", d.SpikeFactor)
			}
			if d.CrashEvery > 0 && !d.CrashStop && d.CrashDowntime <= 0 {
				t.Fatalf("accepted recovering crash plan with downtime %v", d.CrashDowntime)
			}
			if d.RateExcursionEvery > 0 && (d.RateExcursionFactor <= 1 || d.RateExcursionFor <= 0) {
				t.Fatalf("accepted excursion plan %+v", d)
			}
		}
		if d.MessageFaults() != (d.Drop > 0 || d.Dup > 0 || d.DelaySpike > 0) {
			t.Fatal("MessageFaults disagrees with its fields")
		}
	})
}

// specBits is s field by field, a float as its IEEE-754 bit pattern and
// CrashStop as 0 or 1, so a spec carrying NaN compares equal to itself.
func specBits(s Spec) []uint64 {
	v := reflect.ValueOf(s)
	out := make([]uint64, v.NumField())
	for i := range out {
		switch f := v.Field(i); f.Kind() {
		case reflect.Float64:
			out[i] = math.Float64bits(f.Float())
		case reflect.Bool:
			if f.Bool() {
				out[i] = 1
			}
		default:
			panic("specBits: unhandled Spec field " + v.Type().Field(i).Name)
		}
	}
	return out
}
