package jobd

import (
	"testing"
	"time"

	"gcs/internal/des"
)

// TestBackoffDeterministic: a schedule is a pure function of its seed.
func TestBackoffDeterministic(t *testing.T) {
	a := NewBackoff(42)
	b := NewBackoff(42)
	for i := 0; i < 20; i++ {
		if x, y := a.Next(), b.Next(); x != y {
			t.Fatalf("step %d: same seed diverged (%s vs %s)", i, x, y)
		}
	}
	c := NewBackoff(43)
	same := true
	d := NewBackoff(42)
	for i := 0; i < 20; i++ {
		if c.Next() != d.Next() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical 20-step schedules")
	}
}

// TestBackoffBounds: every wait lies in [backoffBase, backoffLimit],
// and the schedule grows toward the limit rather than collapsing.
func TestBackoffBounds(t *testing.T) {
	bo := NewBackoff(7)
	hitLimitHalf := false
	for i := 0; i < 100; i++ {
		d := bo.Next()
		if d < backoffBase || d > backoffLimit {
			t.Fatalf("step %d: wait %s outside [%s, %s]", i, d, backoffBase, backoffLimit)
		}
		if d >= backoffLimit/2 {
			hitLimitHalf = true
		}
	}
	if !hitLimitHalf {
		t.Fatal("schedule never grew past half the limit in 100 steps")
	}
}

// TestBackoffDefaults pins the schedule's bounds at 100ms and 5s: each
// wait is a uniform draw from [100ms, 3*prev] clamped to 5s, replayed
// here by hand from the seed's stream.
func TestBackoffDefaults(t *testing.T) {
	const seed = 1
	bo := NewBackoff(seed)
	rng := des.NewRand(seed)
	prev := 100 * time.Millisecond
	for i := 0; i < 20; i++ {
		want := min(time.Duration(rng.Range(float64(100*time.Millisecond), 3*float64(prev))), 5*time.Second)
		if got := bo.Next(); got != want {
			t.Fatalf("step %d: wait %s, want %s", i, got, want)
		}
		prev = want
	}
}
