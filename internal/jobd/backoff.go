package jobd

import (
	"encoding/binary"
	"time"

	"gcs/internal/des"
	"gcs/internal/store"
)

// The retry schedule's bounds: the first wait is at least backoffBase
// and no wait exceeds backoffLimit. backoffSeed is the daemon's seed,
// into which each cell folds its content address.
const (
	backoffBase  = 100 * time.Millisecond
	backoffLimit = 5 * time.Second
	backoffSeed  = 1
)

// Backoff yields a decorrelated-jitter exponential schedule: each wait
// is drawn uniformly from [backoffBase, 3*prev] and clamped to
// backoffLimit. The draws come from a seeded des.Rand, so a retry
// schedule is a pure function of its seed — tests replay the exact
// schedule, and two daemons configured alike back off identically.
type Backoff struct {
	prev time.Duration
	rng  *des.Rand
}

// NewBackoff returns the schedule seeded by seed.
func NewBackoff(seed uint64) *Backoff {
	return &Backoff{prev: backoffBase, rng: des.NewRand(seed)}
}

// Next returns the next wait in the schedule.
func (b *Backoff) Next() time.Duration {
	d := min(time.Duration(b.rng.Range(float64(backoffBase), 3*float64(b.prev))), backoffLimit)
	b.prev = d
	return d
}

// cellBackoffSeed folds a cell's content address into backoffSeed, so
// concurrent retrying cells don't back off in lockstep while each
// cell's schedule stays reproducible.
func cellBackoffSeed(k store.Key) uint64 {
	return backoffSeed ^ binary.LittleEndian.Uint64(k[:8])
}
