// Package transport implements the paper's bounded-delay message model
// (Kuhn, Locher, Oshman, SPAA 2009, Section 3.2) on top of the dynamic
// graph: every message sent over a present edge is delivered to the other
// endpoint after a delay in (0, maxDelay] iff the edge exists throughout
// the flight; otherwise it is lost. One Send is one flight and one
// delivery event. A flight carries the id of the presence record its
// edge was on when it was sent (dyngraph.Dynamic.Current), and it is
// delivered iff the presence record the flight was sent on is still
// open when the delivery fires (dyngraph.Dynamic.Open, one bit read
// once). That is DeliverAt < Until(Rec), Until the record's removal
// time: a removal is stamped at or before the time of every delivery
// that reads the record afterwards (the serial engine runs churn at
// engine time, the sharded one in its global phase, and every window
// ends at or before the next global event), so a record closed at the
// read closed at or before DeliverAt. Serial and sharded runs share
// this one rule, so they agree on every tie: a removal that has
// happened by the time the delivery fires loses the message even at
// exactly DeliverAt, a message sent at the instant its edge is added is
// carried, and a removal inside the flight loses it even if the edge is
// back by DeliverAt — or back at the very instant of the send: a send
// followed at its instant by a remove and a re-add is lost, as if the
// removal had cancelled it on the spot. The network keeps no per-edge
// state and does not listen to the graph. Deliveries on one edge with equal delays are FIFO (the DES
// kernel breaks ties by scheduling order).
//
// A Network serves one engine (New) or several (NewSharded), with one
// lane per engine holding everything a send or a delivery writes: the
// flight arena, the Broadcast buffer and the counters of the nodes that
// engine carries. A lane may be touched only by its own engine's events
// or while every engine is stopped; the delay law, fault plan, handler
// table and graph are shared and read-only while engines run, so
// a DelayFn or fault plan that keeps state must key it by sender. A send
// runs on the sender's lane and, on a New network, schedules the
// delivery there. A NewSharded network is a des.ParallelEngine's
// des.Mail: a send appends the finished flight once to its lane's outbox
// toward the destination's lane, and Merge puts it in flight there when
// the next window begins, in an order no partition decides. That the
// delay law leaves a flight the time to reach that window (a floor at the
// engines' lookahead) is the caller's DelayFn contract, and Merge checks
// it.
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
// handler table is slice-backed, and Broadcast walks the live adjacency,
// which hands it each target's record without a presence check.
package transport

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"gcs/internal/des"
	"gcs/internal/dyngraph"
	"gcs/internal/fault"
)

// Message is one point-to-point payload in flight or delivered. Value is
// the sender's logical clock reading — the model's only message content.
// Rec is the graph's presence record of the edge the flight was sent on.
type Message struct {
	From, To  int
	Rec       int32
	Value     float64
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
	// Dropped counts messages whose presence record was no longer open
	// when their delivery fired.
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
	// on a one-lane network. On a windowed (NewSharded) network, sends
	// append to outbox generation cur and Merge drains the other.
	lanes    []*lane
	laneOf   []int32
	windowed bool
	cur      int
}

// lane is the per-engine half of a Network (see the package comment for
// who may touch it). Lanes are allocated separately so two workers'
// counters never share a cache line.
type lane struct {
	net *Network
	idx int
	en  *des.Engine
	// lbl tags every delivery event, interned once on en.
	lbl des.Label
	// flights is the arena of in-flight messages, addressed by index so
	// recycling one costs nothing; free lists recycled indices.
	flights []Message
	free    []uint32
	// deliverFn is the single engine callback backing every delivery;
	// the event arg is the flight's arena index.
	deliverFn  des.ArgHandler
	stats      Stats
	faultStats fault.Stats
	// On a windowed network, out[g][dst] is this lane's outbox toward
	// lane dst in generation g, and due the earliest DeliverAt in
	// generation cur's outboxes. seen is Merge's scratch set of hashed
	// delivery times for this lane as destination.
	out  [2][][]Message
	due  des.Time
	seen []uint64
}

// New creates a one-lane transport over g with the given delay law and
// bound: every node sends and receives on en.
func New(en *des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64) *Network {
	return newNetwork([]*des.Engine{en}, g, delay, maxDelay, nil, "transport.deliver", false)
}

// NewSharded creates a windowed transport with one lane per engine, the
// des.Mail of the des.ParallelEngine whose shards they are (SetMail).
// laneOf maps every node of g to the engine that carries it (a single
// engine needs none) and label tags the delivery events.
func NewSharded(engines []*des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64,
	laneOf []int32, label string) *Network {
	return newNetwork(engines, g, delay, maxDelay, laneOf, label, true)
}

func newNetwork(engines []*des.Engine, g *dyngraph.Dynamic, delay DelayFn, maxDelay float64,
	laneOf []int32, label string, windowed bool) *Network {
	if len(engines) == 0 {
		panic("transport: need at least one engine")
	}
	n := &Network{
		g:        g,
		handlers: make([]Handler, g.N()),
		lanes:    make([]*lane, len(engines)),
		windowed: windowed,
	}
	if len(engines) > 1 {
		for u, l := range laneOf {
			if l < 0 || int(l) >= len(engines) {
				panic(fmt.Sprintf("transport: node %d mapped to lane %d of %d", u, l, len(engines)))
			}
		}
		n.laneOf = laneOf
	}
	for i, en := range engines {
		l := &lane{net: n, idx: i, en: en, lbl: en.Label(label)}
		l.deliverFn = func(arg uint64) { l.deliver(uint32(arg)) }
		if windowed {
			l.out = [2][][]Message{make([][]Message, len(engines)), make([][]Message, len(engines))}
			l.seen = make([]uint64, 1<<tieLog/64)
		}
		n.lanes[i] = l
	}
	n.Reset(delay, maxDelay)
	return n
}

// Reset forgets all in-flight traffic and counters and installs a new
// delay law, reusing the flight arenas, outboxes and handler table, so a
// rewired simulation's transport allocates nothing in steady state. The
// fault plan is removed. Call it after the engines have been Reset: the
// pending delivery events are gone with them, so the flights
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
		for _, gen := range l.out {
			for dst := range gen {
				gen[dst] = gen[dst][:0]
			}
		}
		l.due = math.Inf(1)
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
	rec, ok := n.g.Current(dyngraph.E(from, to))
	if !ok {
		l.stats.Refused++
		return false
	}
	l.send(from, to, rec, value)
	return true
}

// send accepts a value on presence record rec, open now, from a node of
// this lane, applying the fault plan (if any) before the normal path.
// Verdicts come from the sender's own stream in its own send order.
func (l *lane) send(from, to int, rec int32, value float64) {
	if faults := l.net.faults; faults != nil {
		v := faults.Draw(from, l.en.Now(), &l.faultStats)
		if v.Drop {
			// The sender paid for the message; the fault plan ate it.
			l.stats.Sent++
			return
		}
		l.sendOne(from, to, rec, value, v.Delay)
		if v.Dup {
			l.sendOne(from, to, rec, value, 0)
		}
		return
	}
	l.sendOne(from, to, rec, value, 0)
}

// sendOne puts one message in flight on open presence record rec: into
// this lane's outbox toward the destination's lane on a windowed network,
// a delivery event on this lane's engine otherwise. spikedDelay, when
// positive, is a fault-injected delay that may exceed maxDelay and
// bypasses the nominal-law validation; 0 draws from the usual delay law.
// The flight is built in the arena — a stack Message would escape
// through the DelayFn value.
//
//gcslint:zeroalloc
func (l *lane) sendOne(from, to int, rec int32, value float64, spikedDelay float64) {
	n := l.net
	now := l.en.Now()
	fi := l.allocFlight()
	msg := &l.flights[fi]
	*msg = Message{From: from, To: to, Rec: rec, Value: value}
	d := spikedDelay
	if d == 0 {
		d = n.delay(msg)
		if d <= 0 || d > n.maxDelay {
			panic(fmt.Sprintf("transport: delay %v outside (0, %v]", d, n.maxDelay))
		}
	}
	msg.DeliverAt = now + d
	l.stats.Sent++
	if n.windowed {
		box := &l.out[n.cur][n.laneFor(to).idx]
		*box = append(*box, *msg)
		l.due = min(l.due, msg.DeliverAt)
		l.free = append(l.free, fi)
		return
	}
	l.en.ScheduleLabel(msg.DeliverAt, l.lbl, l.deliverFn, uint64(fi))
}

// Broadcast sends value from u to every current neighbor, in ascending
// neighbor order, and returns the number of values sent. It walks the
// live adjacency, which holds each edge's open record, so there is no
// per-send presence check; a send does not touch the graph.
//
//gcslint:zeroalloc
func (n *Network) Broadcast(from int, value float64) int {
	l, links := n.laneFor(from), n.g.Links(from)
	for _, k := range links {
		l.send(from, int(k.V), k.Rec, value)
	}
	return len(links)
}

// Due returns the earliest DeliverAt held in the outboxes since the
// last Flip (+Inf if none), for des.Mail.
func (n *Network) Due() des.Time {
	due := math.Inf(1)
	for _, l := range n.lanes {
		due = min(due, l.due)
	}
	return due
}

// Flip starts a new outbox generation, for des.Mail: the window about to
// begin merges the flights sent so far, and later sends wait for the
// next one.
func (n *Network) Flip() {
	n.cur ^= 1
	for _, l := range n.lanes {
		l.due = math.Inf(1)
	}
}

// tieLog is the log2 size of the hashed set Merge finds ties with.
const tieLog = 14

// Merge puts every flight of the drained generation toward lane dst in
// flight on it, for des.Mail: dst's own outbox first, then the other
// lanes' in lane order, flights with one DeliverAt in stable (From, To)
// order (equal keys are one sender's, in its send order), so one node's
// same-instant deliveries meet alike on every lane and worker count. The
// engine orders distinct times, so a batch with no hashed tie is not
// sorted. Merge panics on a flight due before dst's clock (the delay law
// broke the lookahead).
func (n *Network) Merge(dst int) {
	gen, d := n.cur^1, n.lanes[dst]
	in := d.out[gen][dst]
	for _, l := range n.lanes {
		if l != d {
			in = append(in, l.out[gen][dst]...)
			l.out[gen][dst] = l.out[gen][dst][:0]
		}
	}
	clear(d.seen)
	for _, m := range in {
		h := math.Float64bits(m.DeliverAt) * 0x9e3779b97f4a7c15 >> (64 - tieLog)
		if d.seen[h/64]&(1<<(h%64)) != 0 {
			slices.SortStableFunc(in, func(a, b Message) int {
				return cmp.Or(cmp.Compare(a.DeliverAt, b.DeliverAt), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
			})
			break
		}
		d.seen[h/64] |= 1 << (h % 64)
	}
	for i := range in {
		if in[i].DeliverAt < d.en.Now() {
			panic(fmt.Sprintf("transport: flight into lane %d at %v behind its clock %v (lookahead violated)",
				dst, in[i].DeliverAt, d.en.Now()))
		}
		fi := d.allocFlight()
		d.flights[fi] = in[i]
		d.en.ScheduleLabel(in[i].DeliverAt, d.lbl, d.deliverFn, uint64(fi))
	}
	d.out[gen][dst] = in[:0]
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
// handler, unless the presence record it was sent on is no longer open
// (the paper's drop rule; see the package comment for the ties). The flight is released first, so the handler may send messages
// that reuse it.
//
//gcslint:zeroalloc
func (l *lane) deliver(fi uint32) {
	msg := l.flights[fi]
	l.free = append(l.free, fi)
	if !l.net.g.Open(msg.Rec) {
		l.stats.Dropped++
		return
	}
	l.stats.Delivered++
	if h := l.net.handlers[msg.To]; h != nil {
		h(msg)
	}
}
