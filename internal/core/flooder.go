package core

import (
	"math"
	"slices"

	"ule/internal/sim"
)

// flKey is a flood value: a rank plus the origin that injected it. Origins
// are candidate IDs in non-anonymous networks and random 62-bit tokens in
// anonymous ones; the pair is the total order used to break rank ties.
type flKey struct {
	rank   int64
	origin int64
}

// infKey is the identity of the min-order (nothing adopted yet).
var infKey = flKey{rank: math.MaxInt64, origin: math.MaxInt64}

// negKey is the identity of the max-order.
var negKey = flKey{rank: math.MinInt64, origin: math.MinInt64}

func (k flKey) less(o flKey) bool {
	if k.rank != o.rank {
		return k.rank < o.rank
	}
	return k.origin < o.origin
}

// flMsg is the wire record of the flood machine: a rank announcement or its
// echo (ack). Acks piggyback the sender's best-heard value, which closes
// the completion-vs-in-flight race discussed in the Theorem 4.4 analysis.
// It is pointer-free, and it is the only payload type the flood family
// sends.
type flMsg struct {
	Ack bool
	// Tag names the flooder the record belongs to when a protocol runs
	// more than one, or other traffic beside it (tagPhaseA, tagPhaseB);
	// zero on the untagged wire of the plain Theorem 4.4 election.
	Tag    uint8
	Origin int64
	Rank   int64
	// Aux rides along rank announcements (Corollary 4.5 uses it to carry
	// the size estimate to nodes that have not locally started phase B).
	Aux int64
	// HeardRank/HeardOrigin are the acker's best-heard value.
	HeardRank   int64
	HeardOrigin int64
}

// Phase tags multiplexing the flooders of the protocols that run the flood
// beside other traffic.
const (
	tagPhaseA uint8 = iota + 1
	tagPhaseB
)

// Bits implements sim.Payload; every identifier-sized field costs its bit
// length, matching the CONGEST accounting of the paper, and a tagged
// record pays 3 bits for its tag.
func (m *flMsg) Bits() int {
	b := 2 + sim.BitsFor(m.Origin) + sim.BitsFor(m.Rank) + sim.BitsFor(m.Aux)
	if m.Ack {
		b += sim.BitsFor(m.HeardRank) + sim.BitsFor(m.HeardOrigin)
	}
	if m.Tag != 0 {
		b += 3
	}
	return b
}

// onRelease, when set, sees every box a process releases (boxShelf.release).
// Tests only: they poison the box there, so that a read after release moves
// a transcript, and count the releases.
var onRelease func(*flMsg)

// onRenew, when set, sees every process a sim.Recycler of this package is
// about to renew, before any of it is reset. Tests only: they scribble
// over everything the process retained, so that a field the reset leaves
// out moves a transcript.
var onRenew func(sim.Process)

// reuse returns the process a Renew builds the initial state in: old when
// it is one of the protocol's own (a *T), a new T when the node has not run
// yet or ran another protocol last.
func reuse[T any, P interface {
	*T
	sim.Process
}](old sim.Process) P {
	p, ok := old.(P)
	if !ok {
		return new(T)
	}
	if onRenew != nil {
		onRenew(p)
	}
	return p
}

// flState is one entry of the least-element list: an adopted origin and its
// propagation-with-feedback record (the "echo" mechanism of [11] as
// described in Section 4.2). Ports and echo counts are bounded by the
// degree, which the CSR holds in int32, so an entry is 16 bytes.
type flState struct {
	origin     int64
	parentPort int32 // real port toward the origin; -1 at the origin itself
	pending    int32 // echoes still outstanding
}

// portRef is a wire record with the real port it leaves or arrived through.
type portRef[P any] struct {
	port int
	m    P
}

// flRef is a flood record with its port.
type flRef = portRef[*flMsg]

// drip is a process's queue of records waiting for the wire: one FIFO for
// all ports, dripped at a constant per-round rate per port so that streams
// and bursts stay within the CONGEST per-edge budget. sent is flush's
// per-port count, all zero between flushes and sized by the first one that
// needs it.
type drip[P sim.Payload] struct {
	q    []portRef[P]
	sent []uint8
}

func (d *drip[P]) push(port int, m P) { d.q = append(d.q, portRef[P]{port, m}) }

// idle reports whether nothing is queued.
func (d *drip[P]) idle() bool { return len(d.q) == 0 }

// recycled returns d empty, its storage kept for the next run. A run can
// end with records queued: the queue is cleared so that it pins none.
func (d drip[P]) recycled() drip[P] {
	clear(d.q)
	clear(d.sent)
	return drip[P]{q: d.q[:0], sent: d.sent[:0]}
}

// flush sends the first rate queued records of every port of a node of
// degree deg through w, in queue order, and keeps the rest in order; it
// runs once per Round, after the inbox was handled. Only the order within a
// port is observable: link sequence numbers are per link and an inbox is
// sorted by receiving port. A sent slot is cleared, so a drained queue pins
// no record.
func (d *drip[P]) flush(w sender, deg, rate int) {
	q := d.q
	if len(q) > rate { // a port may be over its rate
		if len(d.sent) != deg {
			d.sent = reserve(d.sent[:0], deg)[:deg] // all zero: see recycled
		}
		for i := range q {
			if p := q[i].port; int(d.sent[p]) < rate {
				d.sent[p]++
				w.Send(p, q[i].m)
				q[i].port = ^p // sent
			}
		}
		kept := 0
		for _, r := range q {
			if r.port < 0 {
				d.sent[^r.port] = 0 // every port with a count sent something
				continue
			}
			q[kept] = r
			kept++
		}
		q = q[:kept]
	} else {
		for _, r := range q {
			w.Send(r.port, r.m)
		}
		q = q[:0]
	}
	clear(d.q[len(q):])
	d.q = q
}

// flooder is the least-element-list flood with echo-based termination used
// by every randomized algorithm in the paper (Theorems 4.4, 4.7,
// Corollaries 4.2, 4.5, 4.6). It is direction-parametric: min mode
// implements least-element lists; max mode implements the max-flood of the
// Corollary 4.5 size-estimation phase.
//
// A process with one flooder hands every inbox to round. One that runs two
// on the same inbox calls handleInbox on each, then releases the inbox onto
// their shelf once, then calls flush on each.
type flooder struct {
	min bool
	tag uint8
	// deg is the node's degree; ports lists the real ports the flood uses,
	// nil meaning all deg of them.
	deg   int
	ports []int
	wire  sender
	// shelf is where the flooder draws its boxes and releases its inboxes
	// (boxes.go): its shard's, for the run.
	shelf *boxShelf

	// q holds the records waiting for the wire.
	q drip[*flMsg]
	// ranks is handleInbox's reusable sort scratch.
	ranks []flRef

	// self is this node's own value, once start injected it. best is the
	// least (resp. greatest) value adopted and re-flooded; it gates
	// adoption. heard additionally folds in ack gossip and gates only the
	// local win decision (complete, settle).
	self, best, heard flKey
	// list is this node's least-element list in adoption order, one entry
	// per origin; Lemma 4.3 bounds its expected length by
	// O(min(log f(n), D)), so lookups scan it.
	list []flState

	completed bool
	won       bool
}

// sender is where a flooder puts its *flMsg boxes on the wire, and which
// shard's shelf it draws them from: the node's *sim.Context in production.
type sender interface {
	Send(realPort int, p sim.Payload)
	Shard() int
}

// flushRate bounds flood sends per port per round, keeping bursts of
// echoes within the CONGEST per-edge budget.
const flushRate = 4

// recycle returns f to the zero flooder, keeping the capacity of its queue,
// scratch and list for the next run.
func (f *flooder) recycle() {
	*f = flooder{q: f.q.recycled(), ranks: f.ranks[:0], list: f.list[:0]}
}

// initFlooder initializes a flooder in place on a node of degree deg, on
// top of whatever storage an earlier run of the process left in it. A nil
// ports means every port; wire receives the *flMsg boxes, drawn from the
// shelf of wire's shard in d.
func initFlooder(f *flooder, deg int, ports []int, min bool, tag uint8, wire sender, d *boxDepot) {
	f.recycle()
	f.min, f.tag, f.deg, f.ports, f.wire, f.shelf = min, tag, deg, ports, wire, d.shelf(wire.Shard())
	f.best, f.heard = negKey, negKey
	if min {
		f.best, f.heard = infKey, infKey
	}
}

// numPorts is the number of ports the flood uses.
func (f *flooder) numPorts() int {
	if f.ports == nil {
		return f.deg
	}
	return len(f.ports)
}

// listLen is the size of this node's least-element list (Lemma 4.3
// measures its expectation).
func (f *flooder) listLen() int { return len(f.list) }

// out draws a wire record, queues it for port and returns it for the
// caller to fill in; flush drips it onto the wire.
func (f *flooder) out(port int) *flMsg {
	b := f.shelf.get()
	*b = flMsg{Tag: f.tag}
	f.q.push(port, b)
	return b
}

// announce queues k's rank announcement on every flood port but skip (-1
// for none).
func (f *flooder) announce(k flKey, aux int64, skip int) {
	n := f.numPorts()
	f.q.q = reserve(f.q.q, n)
	for i := 0; i < n; i++ {
		p := i
		if f.ports != nil {
			p = f.ports[i]
		}
		if p != skip {
			b := f.out(p)
			b.Origin, b.Rank, b.Aux = k.origin, k.rank, aux
		}
	}
}

// ack queues the echo of k on port, carrying the best-heard value.
func (f *flooder) ack(port int, k flKey) {
	b := f.out(port)
	b.Ack, b.Origin, b.Rank = true, k.origin, k.rank
	b.HeardRank, b.HeardOrigin = f.heard.rank, f.heard.origin
}

// flush drips the queue onto the wire (see drip.flush).
func (f *flooder) flush() { f.q.flush(f.wire, f.deg, flushRate) }

// round is one Round of a process's only flooder: handle the inbox, give
// its boxes back, drip the queue. It returns the number of records handled.
func (f *flooder) round(inbox []sim.Message) int {
	n := f.handleInbox(inbox)
	f.shelf.release(inbox)
	f.flush()
	return n
}

// idle reports whether no flood traffic is queued.
func (f *flooder) idle() bool { return f.q.idle() }

// better reports whether a beats b in the flood's direction.
func (f *flooder) better(a, b flKey) bool {
	if f.min {
		return a.less(b)
	}
	return b.less(a)
}

// settle is the verdict on the candidacy of a node whose own value started
// the flood (self), given once, while the engine holds the node undecided:
// Leader or NonLeader once its own flood has completed, NonLeader as soon as
// a better value was heard.
func (f *flooder) settle(c *sim.Context) {
	if c.Status() != sim.Undecided {
		return
	}
	switch {
	case f.completed && f.won:
		c.Decide(sim.Leader)
	case f.completed || f.better(f.heard, f.self):
		c.Decide(sim.NonLeader)
	}
}

// find returns the list entry of origin, newest first: echoes mostly
// answer the latest adoptions.
func (f *flooder) find(origin int64) *flState {
	for i := len(f.list) - 1; i >= 0; i-- {
		if f.list[i].origin == origin {
			return &f.list[i]
		}
	}
	return nil
}

// adopt appends k's list entry. The first entries come four at a time: the
// expected list is a handful long.
func (f *flooder) adopt(origin int64, parentPort, pending int) *flState {
	if f.list == nil {
		f.list = make([]flState, 0, 4)
	}
	f.list = append(f.list, flState{origin: origin, parentPort: int32(parentPort), pending: int32(pending)})
	return &f.list[len(f.list)-1]
}

// start injects this node's own value. Must be called at most once, before
// any handleInbox delivery in the same round is processed.
func (f *flooder) start(self flKey, aux int64) {
	f.self = self
	f.best = self
	f.heard = self
	st := f.adopt(self.origin, -1, f.numPorts())
	f.announce(self, aux, -1)
	if st.pending == 0 {
		f.complete()
	}
}

func (f *flooder) complete() {
	f.completed = true
	f.won = f.heard == f.self
}

// fold updates heard with gossip (no re-flooding).
func (f *flooder) fold(k flKey) {
	if f.better(k, f.heard) {
		f.heard = k
	}
}

// handleInbox processes this round's flood traffic, reading the boxes
// where the engine left them: payloads that are not *flMsg, or carry
// another flooder's tag, are skipped. Announcements are processed before
// echoes, best value first (ascending port on ties), so that a completion
// decision in this round already accounts for every value that reached the
// node; echoes follow in arrival order. The announcements are ordered by
// an insertion sort of 16-byte references on reusable scratch, so rounds
// with traffic allocate nothing once the scratch is warm. It returns the
// number of records handled; the boxes stay the caller's to release (see
// boxes.go).
func (f *flooder) handleInbox(inbox []sim.Message) int {
	if f.ranks == nil {
		f.ranks = make([]flRef, 0, 4)
	}
	ranks, acks := f.ranks[:0], 0
	for _, in := range inbox {
		m, ok := in.Payload.(*flMsg)
		if !ok || m.Tag != f.tag {
			continue
		}
		if m.Ack {
			acks++
			continue
		}
		a := flKey{m.Rank, m.Origin}
		i := len(ranks)
		ranks = append(ranks, flRef{in.Port, m})
		for i > 0 {
			b := flKey{ranks[i-1].m.Rank, ranks[i-1].m.Origin}
			if f.better(b, a) || (a == b && ranks[i-1].port <= in.Port) {
				break
			}
			ranks[i] = ranks[i-1]
			i--
		}
		ranks[i] = flRef{in.Port, m}
	}
	for _, r := range ranks {
		f.handleRank(r.port, r.m)
	}
	handled := len(ranks) + acks
	clear(ranks) // the scratch must not pin released boxes
	f.ranks = ranks[:0]
	for i := 0; acks > 0; i++ {
		if m, ok := inbox[i].Payload.(*flMsg); ok && m.Tag == f.tag && m.Ack {
			f.handleAck(m)
			acks--
		}
	}
	return handled
}

func (f *flooder) handleRank(port int, m *flMsg) {
	k := flKey{m.Rank, m.Origin}
	f.fold(k)
	if f.better(k, f.best) && f.find(m.Origin) == nil {
		// Adopt: this is a new least-element (resp. greatest) entry.
		f.best = k
		st := f.adopt(m.Origin, port, f.numPorts()-1)
		f.announce(k, m.Aux, port)
		if st.pending == 0 {
			f.echo(st, k)
		}
		return
	}
	// Reject (or duplicate arrival of an adopted origin): echo immediately.
	f.ack(port, k)
}

func (f *flooder) handleAck(m *flMsg) {
	f.fold(flKey{m.HeardRank, m.HeardOrigin})
	st := f.find(m.Origin)
	if st == nil || st.pending == 0 {
		return // stale echo (e.g. duplicate origins in anonymous collisions)
	}
	st.pending--
	if st.pending == 0 {
		f.echo(st, flKey{m.Rank, m.Origin})
	}
}

// echo fires when all outstanding echoes for an origin returned: forward
// the echo toward the origin, or complete if this node is the origin.
func (f *flooder) echo(st *flState, k flKey) {
	if st.parentPort < 0 {
		f.complete()
		return
	}
	f.ack(int(st.parentPort), k)
}

// addPort grows the port set after the flood started (used by the
// Algorithm 1 overlay when the far side of a retained inter-cluster edge
// finishes its sparsification later than this node). Outstanding echo
// counts are unaffected: already-flooded values were never forwarded on the
// new port, so no echo is owed there; future adoptions include it.
func (f *flooder) addPort(p int) {
	if f.ports == nil || slices.Contains(f.ports, p) {
		return
	}
	f.ports = append(f.ports, p)
}
