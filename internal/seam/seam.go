// Package seam defines the harness-neutral interfaces the GCS node
// algorithm (internal/gcs) is written against, so the same node code
// runs unchanged in two very different harnesses:
//
//   - the discrete-event simulator: internal/clock's HardwareClock is
//     the Clock, internal/transport's Network is the Sender, and
//     internal/dyngraph's Dynamic is the Topology — all single-threaded,
//     owned by a des.Engine, with simulated time under the harness's
//     control (the reproduction and experiment surface);
//   - the real-time runtime (internal/rt): a goroutine-per-node
//     runtime over in-process channels, where the Clock is the same
//     HardwareClock over a wall-time base (one wall timer per clock), the
//     Topology the same Dynamic under a lock, and deliveries arrive on
//     real goroutines (the deployable surface, tested deterministically
//     under testing/synctest).
//
// The seam is deliberately minimal: it is exactly the set of operations
// the paper's pseudocode assumes of its environment — read the local
// hardware clock, set/cancel subjective timers ("fire when my hardware
// clock has advanced by dH"), send to one or all current neighbors, and
// enumerate the current neighborhood. Everything else (delay laws,
// drift processes, churn, fault injection) is harness policy behind
// these interfaces.
//
// Implementations are not required to be safe for concurrent use: every
// method is invoked from the owning node's execution context (a DES
// event, or the node's goroutine in the real-time runtime), and each
// harness is responsible for providing that serialization.
package seam

// Clock is one node's subjective hardware clock: a monotonically
// increasing reading whose rate may drift within the model's
// [1-rho, 1+rho] band. Readings are in hardware seconds.
type Clock interface {
	// Now returns the clock's current reading.
	Now() float64
	// NewTimer returns a new, unarmed subjective timer owned by this
	// clock. label tags the timer's events for tracing/diagnostics; fn
	// runs at every firing, in the owning node's execution context. The
	// timer is long-lived: callers arm and re-arm it with Reset rather
	// than constructing a new one per firing, so the per-tick path can
	// stay allocation-free in harnesses that care.
	NewTimer(label string, fn func()) Timer
}

// Timer is a resettable subjective timer: it fires when the owning
// clock has advanced by the armed amount, surviving any rate drift in
// between (the paper's set_timer(dt, id) primitive). The zero state is
// unarmed.
type Timer interface {
	// Reset (re)arms the timer to fire when the owning clock has
	// advanced by dH from its current reading, replacing any pending
	// arming. dH must be nonnegative.
	Reset(dH float64)
	// Stop cancels the pending firing, if any. Stopping an unarmed
	// timer is a no-op.
	Stop()
	// Pending reports whether the timer is currently armed.
	Pending() bool
}

// Sender is the transmit half of a bounded-delay transport. Both
// methods identify the sending node explicitly, so one Sender instance
// can serve every node of a harness.
type Sender interface {
	// Broadcast sends value from node `from` to every current neighbor
	// and returns the number of messages sent.
	Broadcast(from int, value float64) int
	// Send transmits value over the (from, to) edge if it is currently
	// present, reporting whether the message was accepted. Neighbor
	// discovery uses it to beacon over a fresh edge without re-beaconing
	// the whole neighborhood.
	Send(from, to int, value float64) bool
}

// Topology exposes a node's current neighborhood. AppendNeighbors
// appends u's current neighbors to buf and returns it (any order; the
// algorithm's neighbor scan is order-independent), reusing buf's
// capacity so the per-message path does not allocate.
type Topology interface {
	AppendNeighbors(u int, buf []int) []int
}
