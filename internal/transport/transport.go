// Package transport implements the paper's bounded-delay message model
// (Kuhn, Locher, Oshman, SPAA 2009, Section 3.2) on top of the dynamic
// graph: every message sent over a present edge is delivered to the other
// endpoint after a delay in (0, maxDelay] iff the edge exists throughout
// the flight; otherwise it is lost. One Send is one flight and one
// delivery event, and the rule is checked once, when that event fires,
// against the history the graph has recorded by then:
// dyngraph.ExistsThroughout(edge, SentAt, DeliverAt), i.e. the edge's
// current interval has Start <= SentAt and DeliverAt < End. Serial and
// sharded runs share this one rule, so they agree on every tie: a
// removal that has happened by the time the delivery fires loses the
// message even at exactly DeliverAt, a message sent at the instant its
// edge is added is carried, and a removal inside the flight loses it
// even if the edge is back by DeliverAt. The network keeps no per-edge state and does not
// listen to the graph. Deliveries on one edge with equal delays are FIFO
// (the DES kernel breaks ties by scheduling order).
//
// A Network serves one engine (New) or several (NewSharded), with one
// lane per engine holding everything a send or a delivery writes: the
// flight arena, the Broadcast buffer and the counters of the nodes that
// engine carries. A lane may be touched only by its own engine's events
// or while every engine is stopped; the delay law, fault plan, handler
// table and graph are shared and read-only while engines run, so
// a DelayFn or fault plan that keeps state must key it by sender. A send
// runs on the sender's lane; a network with a cross callback hands it
// every flight, finished, whose owner must Accept it on the destination's
// lane before that engine reaches DeliverAt — that the delay law leaves
// it the time (a floor at the engines' lookahead) is the caller's DelayFn
// contract, and des.ParallelEngine's merge checks it.
//
// Delays are drawn per message from one DelayFn, which sees the whole
// message, sender and receiver included. Every harness's nominal law is
// Delays: uniform in (min, max], from the sender's own stream. The
// Section 4 adversary is another DelayFn, charging asymmetric delays
// across the lower-bound network's two chains.
//
// The send/deliver path is allocation-free in steady state: payloads are
// typed float64 values (the only payload the GCS model carries — a
// logical clock reading — so no boxing through an interface), in-flight
// messages live in a pooled arena indexed by small integers, the per-node
// handler table is slice-backed, and Broadcast reuses one neighbor buffer
// per lane and skips the edge presence check entirely (its targets come
// from the live adjacency).
package transport

import (
	"fmt"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
)

// Message is one point-to-point payload in flight or delivered. Value is
// the sender's logical clock reading — the model's only message content.
type Message struct {
	From, To  int
	Edge      dyngraph.Edge
	Value     float64
	SentAt    des.Time
	DeliverAt des.Time
}

// Handler consumes messages delivered to one node. It runs at the
// message's delivery time.
type Handler func(m Message)

// DelayFn draws the in-flight delay for a message about to be sent. The
// returned delay must lie in (0, maxDelay]; the Network panics otherwise,
// since a zero or oversized delay would break the paper's model.
type DelayFn func(m *Message) float64

// UniformDelay returns a DelayFn drawing uniformly from (0, maxDelay]
// using the given deterministic source.
func UniformDelay(maxDelay float64, r *des.Rand) DelayFn {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	return func(*Message) float64 {
		// 1 - Float64() is in (0, 1], so the delay is in (0, maxDelay].
		return maxDelay * (1 - r.Float64())
	}
}

// Delays is the nominal delay law of every harness: a message's delay is
// uniform in (min, max], drawn from its sender's own stream in the
// sender's own send order. The Section 3.2 adversary picks each delay on
// its own, so nothing in the model asks for one global stream, and with
// per-sender streams sender u's delays do not depend on how other
// senders' draws interleave — across shard windows in the sharded
// harness, across goroutines in the real-time runtime. Draw(u) may run
// concurrently with Draw(v) for u != v. Wire reseeds a Delays in place
// and allocates nothing once its table has grown.
type Delays struct {
	min, max float64
	rands    []des.Rand
}

// Wire reseeds the law for one run of n senders with delays in (min,
// max]. Sender i's stream is child i of root's child 0xde1a9; root is
// never advanced.
func (d *Delays) Wire(min, max float64, n int, root *des.Rand) {
	d.min, d.max = min, max
	d.rands = root.ForkTable(0xde1a9, n, d.rands)
}

// Draw returns the delay of the next message sent by from.
func (d *Delays) Draw(from int) float64 {
	// 1 - Float64() is in (0, 1], so the delay is in (min, max].
	return d.min + (d.max-d.min)*(1-d.rands[from].Float64())
}

// Stats counts transport activity over an execution.
type Stats struct {
	// Sent counts messages accepted for delivery.
	Sent uint64
	// Delivered counts messages handed to a receiver handler.
	Delivered uint64
	// Dropped counts messages whose edge did not exist throughout the
	// flight, found out at their delivery time.
	Dropped uint64
	// Refused counts sends attempted over absent edges.
	Refused uint64
}

// Network is the bounded-delay transport over one dynamic graph: the
// shared, read-only-while-running half, plus one lane per engine.
type Network struct {
	g        *dyngraph.Dynamic
	maxDelay float64
	delay    DelayFn
	// handlers is indexed by node id.
	handlers []Handler
	// faults, when non-nil, draws a per-message fault verdict (drop,
	// duplicate, delay spike) before the normal send path.
	faults *fault.Messages

	// lanes holds one lane per engine; laneOf maps node -> lane and is nil
	// on a one-lane network. cross, when set, takes every flight; label
	// tags every delivery event.
	lanes  []*lane
	laneOf []int32
	cross  func(src, dst int, m *Message)
	label  string
}

// lane is the per-engine half of a Network (see the package comment for
// who may touch it). Lanes are allocated separately so two workers'
// counters never share a cache line.
type lane struct {
	net *Network
	idx int
	en  *des.Engine
	// flights is the arena of in-flight messages, addressed by index so
	// recycling one costs nothing; free lists recycled indices.
	flights []Message
	free    []uint32
	// deliverFn is the single engine callback backing every delivery;
	// the event arg is the flight's arena index.
	deliverFn des.ArgHandler
	// nbuf is the reused Broadcast neighbor buffer.
	nbuf       []int
	stats      Stats
	faultStats fault.Stats
}

// New creates a one-lane transport over g with the given delay law and
// bound: every node sends and receives on en.
func New(en *des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64) *Network {
	return NewSharded([]*des.Engine{en}, g, delay, maxDelay, nil, "transport.deliver", nil)
}

// NewSharded creates a transport with one lane per engine. laneOf maps
// every node of g to the engine that carries it and label tags the
// delivery events. cross, if set, is handed every finished flight (delay
// drawn, DeliverAt set, Sent counted) with its sender's lane src and its
// destination's dst, maybe equal; m points into src's arena and is
// recycled when cross returns: copy, don't keep. A single engine needs
// neither laneOf nor cross.
func NewSharded(engines []*des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64,
	laneOf []int32, label string, cross func(src, dst int, m *Message)) *Network {
	if len(engines) == 0 {
		panic("transport: need at least one engine")
	}
	n := &Network{
		g:        g,
		handlers: make([]Handler, g.N()),
		lanes:    make([]*lane, len(engines)),
		cross:    cross,
		label:    label,
	}
	if len(engines) > 1 {
		if cross == nil {
			panic("transport: more than one lane needs a cross hand-off")
		}
		for u, l := range laneOf {
			if l < 0 || int(l) >= len(engines) {
				panic(fmt.Sprintf("transport: node %d mapped to lane %d of %d", u, l, len(engines)))
			}
		}
		n.laneOf = laneOf
	}
	for i, en := range engines {
		l := &lane{net: n, idx: i, en: en}
		l.deliverFn = func(arg uint64) { l.deliver(uint32(arg)) }
		n.lanes[i] = l
	}
	n.Reset(delay, maxDelay)
	return n
}

// Reset forgets all in-flight traffic and counters and installs a new
// delay law, reusing the flight arenas and handler table, so a rewired
// simulation's transport allocates nothing in steady state. The fault
// plan is removed. Call it after the engines have been
// Reset: the pending delivery events are gone with them, so the flights
// they pointed at are simply released. Handlers registered for surviving
// node ids stay registered; the table grows if the graph was Reset to
// more nodes (a lane map must already cover them).
func (n *Network) Reset(delay DelayFn, maxDelay float64) {
	if maxDelay <= 0 {
		panic("transport: maxDelay must be positive")
	}
	if delay == nil {
		panic("transport: nil DelayFn")
	}
	if len(n.lanes) > 1 && len(n.laneOf) < n.g.N() {
		panic(fmt.Sprintf("transport: lane map covers %d of %d nodes", len(n.laneOf), n.g.N()))
	}
	n.maxDelay = maxDelay
	n.delay = delay
	n.faults = nil
	if g := n.g.N(); g > len(n.handlers) {
		grown := make([]Handler, g)
		copy(grown, n.handlers)
		n.handlers = grown
	}
	for _, l := range n.lanes {
		l.flights = l.flights[:0]
		l.free = l.free[:0]
		l.stats = Stats{}
		l.faultStats = fault.Stats{}
	}
}

// SetFaults installs (or, with nil, removes) a message-fault plan:
// every send first draws a verdict from it — dropped messages count
// toward Sent (the sender paid for them) and the plan's Drops, never
// toward Dropped (no edge removal occurred); duplicated messages send
// a second flight with its own nominal delay; spiked messages charge a
// delay beyond maxDelay, exempt from the (0, maxDelay] validation.
// Reset removes the plan.
func (n *Network) SetFaults(m *fault.Messages) { n.faults = m }

// FaultStats returns the fault counters accumulated so far, merged over
// the lanes (an order-independent fold: counter sums, max time).
func (n *Network) FaultStats() fault.Stats {
	var st fault.Stats
	for _, l := range n.lanes {
		st.Merge(l.faultStats)
	}
	return st
}

// Stats returns the counters accumulated so far, summed over the lanes.
func (n *Network) Stats() Stats {
	var st Stats
	for _, l := range n.lanes {
		st.Sent += l.stats.Sent
		st.Delivered += l.stats.Delivered
		st.Dropped += l.stats.Dropped
		st.Refused += l.stats.Refused
	}
	return st
}

// SetHandler registers the delivery callback for node u, replacing any
// previous one. Messages delivered to a node with no handler are counted
// as delivered and discarded.
func (n *Network) SetHandler(u int, h Handler) { n.handlers[u] = h }

// laneFor returns the lane of the engine that carries node u.
func (n *Network) laneFor(u int) *lane {
	if n.laneOf == nil {
		return n.lanes[0]
	}
	return n.lanes[n.laneOf[u]]
}

// Send transmits value from one endpoint of a present edge to the other.
// It reports whether the message was accepted; a send over an absent
// edge is refused (the model has no way to transmit without an edge).
func (n *Network) Send(from, to int, value float64) bool {
	l := n.laneFor(from)
	e := dyngraph.E(from, to)
	if !n.g.Present(e) {
		l.stats.Refused++
		return false
	}
	l.send(from, to, e, value)
	return true
}

// send accepts a value over an edge known to be present from a node of
// this lane, applying the fault plan (if any) before the normal path.
// Verdicts come from the sender's own stream in its own send order.
func (l *lane) send(from, to int, e dyngraph.Edge, value float64) {
	if faults := l.net.faults; faults != nil {
		v := faults.Draw(from, l.en.Now(), &l.faultStats)
		if v.Drop {
			// The sender paid for the message; the fault plan ate it.
			l.stats.Sent++
			return
		}
		l.sendOne(from, to, e, value, v.Delay)
		if v.Dup {
			l.sendOne(from, to, e, value, 0)
		}
		return
	}
	l.sendOne(from, to, e, value, 0)
}

// sendOne puts one message in flight over an edge known to be present:
// a hand-off to the network's cross when it has one, a delivery event on
// this lane's engine otherwise. spikedDelay, when
// positive, is a fault-injected delay that may exceed maxDelay and
// bypasses the nominal-law validation; 0 draws from the usual delay law.
// The flight is built in the arena — a stack Message would escape
// through the DelayFn value.
//
//gcslint:zeroalloc
func (l *lane) sendOne(from, to int, e dyngraph.Edge, value float64, spikedDelay float64) {
	n := l.net
	now := l.en.Now()
	fi := l.allocFlight()
	msg := &l.flights[fi]
	*msg = Message{
		From:   from,
		To:     to,
		Edge:   e,
		Value:  value,
		SentAt: now,
	}
	d := spikedDelay
	if d == 0 {
		d = n.delay(msg)
		if d <= 0 || d > n.maxDelay {
			panic(fmt.Sprintf("transport: delay %v outside (0, %v]", d, n.maxDelay))
		}
	}
	msg.DeliverAt = now + d
	l.stats.Sent++
	if n.cross != nil {
		n.cross(l.idx, n.laneFor(to).idx, msg)
		l.free = append(l.free, fi)
		return
	}
	l.en.ScheduleArg(msg.DeliverAt, n.label, l.deliverFn, uint64(fi))
}

// Broadcast sends value from u to every current neighbor, in ascending
// neighbor order, and returns the number of values sent. The neighbor
// set comes from the live adjacency, so the per-send edge presence check
// is skipped entirely. It reuses one per-lane neighbor buffer, so it
// must not be called reentrantly from inside another Broadcast's send
// loop (deliveries happen later, from engine events, so handlers may
// broadcast freely).
//
//gcslint:zeroalloc
func (n *Network) Broadcast(from int, value float64) int {
	l := n.laneFor(from)
	l.nbuf = n.g.AppendNeighbors(from, l.nbuf[:0])
	for _, v := range l.nbuf {
		l.send(from, v, dyngraph.E(from, v), value)
	}
	return len(l.nbuf)
}

// Accept puts a flight that cross was handed in flight on its
// destination's lane. Call it with that lane's engine stopped and not
// past m.DeliverAt.
//
//gcslint:zeroalloc
func (n *Network) Accept(m Message) {
	l := n.laneFor(m.To)
	fi := l.allocFlight()
	l.flights[fi] = m
	l.en.ScheduleArg(m.DeliverAt, n.label, l.deliverFn, uint64(fi))
}

// allocFlight returns a free arena index, growing the arena if the free
// list is empty.
//
//gcslint:zeroalloc
func (l *lane) allocFlight() uint32 {
	if k := len(l.free); k > 0 {
		fi := l.free[k-1]
		l.free = l.free[:k-1]
		return fi
	}
	l.flights = append(l.flights, Message{})
	return uint32(len(l.flights) - 1)
}

// deliver recycles flight fi and hands its message to the destination
// handler, unless the edge was absent at any point of the flight (the
// paper's drop rule; see the package comment for the ties). The flight
// is released first, so the handler may send messages that reuse it.
//
//gcslint:zeroalloc
func (l *lane) deliver(fi uint32) {
	msg := l.flights[fi]
	l.free = append(l.free, fi)
	if !l.net.g.ExistsThroughout(msg.Edge, msg.SentAt, msg.DeliverAt) {
		l.stats.Dropped++
		return
	}
	l.stats.Delivered++
	if h := l.net.handlers[msg.To]; h != nil {
		h(msg)
	}
}
