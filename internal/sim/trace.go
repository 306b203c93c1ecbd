package sim

import "fmt"

// TraceRecorder collects a ring-buffered time series of every node's
// logical clock value, one row per skew sample. It is the storage behind
// the lower-bound experiment's skew traces: the Section 4 plots need
// L_u(t) for every node over the whole execution, but the hot path must
// not allocate, so rows live in one flat pre-sized buffer and recording
// is a copy. When more samples arrive than the recorder's capacity, the
// oldest rows are overwritten (the ring keeps the most recent window).
//
// A recorder is reusable across runs — Reset reshapes it for a new node
// count while keeping the allocated buffers whenever they are large
// enough — so a sweep over many n values performs O(1) trace
// allocations, not O(runs).
type TraceRecorder struct {
	n        int
	capacity int
	times    []float64 // capacity ring of sample times
	rows     []float64 // capacity rows of n values each, same ring order
	head     int       // next write position
	count    int       // rows currently held, <= capacity
}

// NewTraceRecorder returns a recorder for n nodes holding up to capacity
// samples.
func NewTraceRecorder(n, capacity int) *TraceRecorder {
	if n < 1 || capacity < 1 {
		panic("sim: TraceRecorder needs positive node count and capacity")
	}
	return &TraceRecorder{
		n:        n,
		capacity: capacity,
		times:    make([]float64, capacity),
		rows:     make([]float64, capacity*n),
	}
}

// Reset drops all recorded samples and reshapes the recorder for n
// nodes, reusing the existing buffers when they are large enough.
func (tr *TraceRecorder) Reset(n int) {
	tr.ResetSize(n, tr.capacity)
}

// ResetSize drops all recorded samples and reshapes the recorder for n
// nodes and capacity samples, reusing the existing buffers when they are
// large enough. Sweeps over growing scenarios (the lower-bound n-sweep)
// reshape one recorder per step instead of reallocating one per n.
func (tr *TraceRecorder) ResetSize(n, capacity int) {
	if n < 1 || capacity < 1 {
		panic("sim: TraceRecorder needs positive node count and capacity")
	}
	tr.n = n
	tr.capacity = capacity
	tr.head = 0
	tr.count = 0
	if capacity > cap(tr.times) {
		tr.times = make([]float64, capacity)
	} else {
		tr.times = tr.times[:capacity]
	}
	if need := capacity * n; need > cap(tr.rows) {
		tr.rows = make([]float64, need)
	} else {
		tr.rows = tr.rows[:need]
	}
}

// Record appends one sample: the time plus a copy of vals (one logical
// clock value per node). It allocates nothing; once the ring is full the
// oldest sample is overwritten.
func (tr *TraceRecorder) Record(t float64, vals []float64) {
	if len(vals) != tr.n {
		panic(fmt.Sprintf("sim: trace row has %d values, recorder holds %d nodes", len(vals), tr.n))
	}
	tr.times[tr.head] = t
	copy(tr.rows[tr.head*tr.n:(tr.head+1)*tr.n], vals)
	tr.head = (tr.head + 1) % tr.capacity
	if tr.count < tr.capacity {
		tr.count++
	}
}

// Len returns the number of samples currently held.
func (tr *TraceRecorder) Len() int { return tr.count }

// Sample returns the i-th held sample in chronological order (0 is the
// oldest). The returned slice aliases the ring's storage: it is valid
// until the next Record or Reset and must not be modified.
func (tr *TraceRecorder) Sample(i int) (t float64, vals []float64) {
	if i < 0 || i >= tr.count {
		panic(fmt.Sprintf("sim: trace sample %d out of range [0, %d)", i, tr.count))
	}
	pos := i
	if tr.count == tr.capacity {
		pos = (tr.head + i) % tr.capacity
	}
	return tr.times[pos], tr.rows[pos*tr.n : (pos+1)*tr.n]
}

// Skew returns the i-th sample's time together with the minimum and
// maximum logical value across nodes — the row reduced to the global
// skew band that the lower-bound CSV dump plots.
func (tr *TraceRecorder) Skew(i int) (t, min, max float64) {
	t, vals := tr.Sample(i)
	min, max = vals[0], vals[0]
	for _, v := range vals[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return t, min, max
}
