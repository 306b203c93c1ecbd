package rt

import (
	"sync"
	"sync/atomic"
	"time"

	"gcs/internal/dyngraph"
	"gcs/internal/fault"
	"gcs/internal/seam"
	"gcs/internal/sim"
	"gcs/internal/transport"
)

// Router is the real-time runtime's in-process transport and live
// topology: the seam.Sender and seam.Topology every node is wired to.
// Sends draw their delay from the DES harnesses' law, transport.Delays
// (the sender's own stream, so delay sequences are per-sender
// deterministic), and deliver through a time.AfterFunc into the
// receiver's event queue. The topology is a dyngraph.Dynamic stamped
// with simulated time, and the loss rule is the DES transports': a
// message is delivered iff the presence record the flight was sent on is
// still open when the delivery fires, so one whose edge vanished at any
// point in flight is lost, even if the edge is back at delivery. That
// is DeliverAt < Until(record): change stamps a removal with simNow()
// under the write lock, at or before the time of any delivery that
// reads the record afterwards.
//
// The graph is guarded by an RWMutex — node goroutines read it on
// every broadcast and delivery and on the neighbor rescan after a lost
// edge, churn steps write it. Lock order: a host lock may be held while
// taking the router lock, never the reverse (the sampler folds edges
// after releasing every host lock, Add and Remove relay discover(add)
// and discover(remove) only after releasing the write lock).
type Router struct {
	r *Runtime
	// delays is the nominal delay law; a sender draws only from its own
	// stream, on its own goroutine.
	delays transport.Delays
	// faults, when non-nil, draws per-send fault verdicts (drop, dup,
	// delay spike) from per-sender streams, the same fault.Messages
	// engine the DES transport uses.
	faults *fault.Messages

	mu sync.RWMutex
	g  *dyngraph.Dynamic

	sent, delivered, dropped, refused atomic.Uint64
}

var (
	_ seam.Sender    = (*Router)(nil)
	_ seam.Topology  = (*Router)(nil)
	_ sim.EdgeWriter = (*Router)(nil)
)

// Add and Remove implement sim.EdgeWriter for the churn chain. The step's
// time argument is ignored: churn chains step on separate timer
// goroutines, so the graph is stamped with the time read inside the write
// lock, which keeps its writes in time order. An edge that actually
// changes (the graph's epoch moves) is relayed to both endpoints
// (discover(add), discover(remove)) once the lock is released.
func (rt *Router) Add(_ float64, e dyngraph.Edge) { rt.change(e, true) }

func (rt *Router) Remove(_ float64, e dyngraph.Edge) { rt.change(e, false) }

func (rt *Router) change(e dyngraph.Edge, added bool) {
	rt.mu.Lock()
	epoch := rt.g.Epoch()
	if added {
		rt.g.Add(rt.r.simNow(), e)
	} else {
		rt.g.Remove(rt.r.simNow(), e)
	}
	changed := rt.g.Epoch() != epoch
	rt.mu.Unlock()
	if changed {
		rt.r.relay(e, added)
	}
}

// AppendNeighbors implements seam.Topology.
func (rt *Router) AppendNeighbors(u int, buf []int) []int {
	rt.mu.RLock()
	buf = rt.g.AppendNeighbors(u, buf)
	rt.mu.RUnlock()
	return buf
}

// Broadcast implements seam.Sender: one send per current neighbor, in
// ascending order (fixing the sender's delay-draw order, like the DES
// transports). Runs on the sending node's goroutine.
func (rt *Router) Broadcast(from int, value float64) int {
	h := rt.r.hosts[from]
	rt.mu.RLock()
	h.sendBuf = append(h.sendBuf[:0], rt.g.Links(from)...)
	rt.mu.RUnlock()
	for _, k := range h.sendBuf {
		rt.send(from, int(k.V), k.Rec, value)
	}
	return len(h.sendBuf)
}

// Send implements seam.Sender's unicast (neighbor discovery's immediate
// beacon); a send over an absent edge is refused.
func (rt *Router) Send(from, to int, value float64) bool {
	rt.mu.RLock()
	rec, ok := rt.g.Current(dyngraph.E(from, to))
	rt.mu.RUnlock()
	if !ok {
		rt.refused.Add(1)
		return false
	}
	rt.send(from, to, rec, value)
	return true
}

// send accepts a value on presence record rec, applying the fault plan
// first. Accounting mirrors the DES transport: a fault-dropped message
// counts Sent (the sender paid for it), a dup's copy counts as its own
// send with its own delay draw.
func (rt *Router) send(from, to int, rec int32, value float64) {
	h := rt.r.hosts[from]
	now := rt.r.simNow()
	var v fault.Verdict
	if rt.faults != nil {
		v = rt.faults.Draw(from, now, &h.fstats)
	}
	if v.Drop {
		rt.sent.Add(1)
		return
	}
	delay := v.Delay
	if delay == 0 {
		delay = rt.delays.Draw(from)
	}
	rt.deliverAfter(from, to, rec, value, delay)
	if v.Dup {
		rt.deliverAfter(from, to, rec, value, rt.delays.Draw(from))
	}
}

// deliverAfter puts one message on presence record rec in flight for
// delay.
func (rt *Router) deliverAfter(from, to int, rec int32, value, delay float64) {
	rt.sent.Add(1)
	dst := rt.r.hosts[to]
	time.AfterFunc(durOf(delay), func() {
		dst.enqueue(func() { rt.deliver(from, to, rec, value) })
	})
}

// deliver ends a flight in the receiver's event context: the message
// reaches the node iff its presence record is still open now.
func (rt *Router) deliver(from, to int, rec int32, value float64) {
	rt.mu.RLock()
	ok := rt.g.Open(rec)
	rt.mu.RUnlock()
	if !ok {
		rt.dropped.Add(1)
		return
	}
	rt.delivered.Add(1)
	rt.r.hosts[to].node.OnMessage(from, value)
}

// Stats returns the traffic counters in the shared report shape.
func (rt *Router) Stats() transport.Stats {
	return transport.Stats{
		Sent:      rt.sent.Load(),
		Delivered: rt.delivered.Load(),
		Dropped:   rt.dropped.Load(),
		Refused:   rt.refused.Load(),
	}
}
