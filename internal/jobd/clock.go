package jobd

import "time"

// Clock is the daemon's only window onto wall time — cell deadlines
// and drain grace periods go through it. Injecting
// it keeps the scheduling logic deterministic under test (the repo's
// nondeterminism lint bans direct time.Now in this package) while the
// production daemon runs on RealClock.
type Clock interface {
	// Now returns the current wall time.
	Now() time.Time
	// After fires once after d elapses.
	After(d time.Duration) <-chan time.Time
}

// RealClock returns the wall clock.
func RealClock() Clock { return realClock{} }

type realClock struct{}

// Now implements Clock. This is the one sanctioned wall-time read in
// the package: everything downstream consumes it through the seam.
func (realClock) Now() time.Time {
	//gcslint:allow nondeterminism — the Clock seam's production edge.
	return time.Now()
}

// After implements Clock.
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
