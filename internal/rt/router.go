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
// Sends draw a bounded random delay from the sender's own PRNG stream
// (so delay sequences are per-sender deterministic, like the parallel
// DES engine's) and deliver through a time.AfterFunc into the
// receiver's event queue. The topology is a dyngraph.Dynamic stamped
// with simulated time, and the loss rule is the DES transports': a
// message is delivered iff its edge existed throughout the flight
// (ExistsThroughout), so one whose edge vanished at any point in flight
// is lost, even if the edge is back at delivery.
//
// The graph is guarded by an RWMutex — node goroutines read it on
// every broadcast and delivery and on the neighbor rescan after a lost
// edge, churn steps write it. Lock order: a host lock may be held while
// taking the router lock, never the reverse (the sampler snapshots edges
// before touching hosts, Add and Remove relay discover(add) and
// discover(remove) only after releasing the write lock).
type Router struct {
	r                  *Runtime
	minDelay, maxDelay float64
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

// drawDelay returns a nominal delay in (minDelay, maxDelay], the
// transport.UniformDelayIn law over the sender's own stream.
func (rt *Router) drawDelay(h *host) float64 {
	return rt.minDelay + (rt.maxDelay-rt.minDelay)*(1-h.delayRand.Float64())
}

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
	h.sendBuf = rt.AppendNeighbors(from, h.sendBuf[:0])
	for _, to := range h.sendBuf {
		rt.send(from, to, value)
	}
	return len(h.sendBuf)
}

// Send implements seam.Sender's unicast (neighbor discovery's immediate
// beacon); a send over an absent edge is refused.
func (rt *Router) Send(from, to int, value float64) bool {
	rt.mu.RLock()
	ok := rt.g.Present(dyngraph.E(from, to))
	rt.mu.RUnlock()
	if !ok {
		rt.refused.Add(1)
		return false
	}
	rt.send(from, to, value)
	return true
}

// send accepts a value over an edge known to be present, applying the
// fault plan first. Accounting mirrors the DES transport: a
// fault-dropped message counts Sent (the sender paid for it), a dup's
// copy counts as its own send with its own delay draw.
func (rt *Router) send(from, to int, value float64) {
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
		delay = rt.drawDelay(h)
	}
	rt.deliverAfter(from, to, value, now, delay)
	if v.Dup {
		rt.deliverAfter(from, to, value, now, rt.drawDelay(h))
	}
}

// deliverAfter puts one message sent at sentAt in flight for delay.
func (rt *Router) deliverAfter(from, to int, value, sentAt, delay float64) {
	rt.sent.Add(1)
	dst := rt.r.hosts[to]
	time.AfterFunc(durOf(delay), func() {
		dst.enqueue(func() { rt.deliver(from, to, value, sentAt) })
	})
}

// deliver ends a flight in the receiver's event context: the message
// reaches the node iff its edge existed throughout [sentAt, now].
func (rt *Router) deliver(from, to int, value, sentAt float64) {
	rt.mu.RLock()
	ok := rt.g.ExistsThroughout(dyngraph.E(from, to), sentAt, rt.r.simNow())
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
