package core

import (
	"cmp"
	"math"
	"slices"

	"ule/internal/sim"
)

// Cluster is the Theorem 4.7 "clustering algorithm" (Algorithm 1): a
// randomized election with O(D·log n) time and O(m + n·log n) messages whp
// — fewer messages than the least-element family on sparse graphs, at a
// log-factor time penalty.
//
// Phase 1: Θ(log n) sampled candidates grow BFS trees; every node joins the
// first tree to reach it, so the network is partitioned into clusters whose
// trees have O(n) edges in total. Phase 2 sparsifies the inter-cluster
// edges: each node keeps one edge per adjacent foreign cluster, subtree
// summaries are convergecast (streamed one O(log n)-bit record per message,
// the CONGEST chunking of the paper's O(log² n)-bit graphs), the root
// dedupes to one edge per cluster pair, and the final set is broadcast back
// down. Phase 3 runs the Theorem 4.4 election with f(n)=n on the overlay of
// tree edges plus retained inter-cluster edges, whose size is O(n + log² n)
// and diameter O(D·log n).
type Cluster struct {
	// Factor scales the 8·ln(n)/n candidate probability
	// (Options.ClusterCandidateFactor).
	Factor float64
	depot  *boxDepot // Options.depot
}

// New implements sim.Protocol.
func (cl Cluster) New(info sim.NodeInfo) sim.Process { return cl.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a cluster process, in
// old's rows, scratch, slab and flooder when old is a cluster process.
// Records that arrived before phase 3 of a run that ended first are
// dropped, so that they pin no box.
func (cl Cluster) Renew(old sim.Process, info sim.NodeInfo) sim.Process {
	p := reuse[clusterProc](old)
	p.fl.recycle()
	clear(p.early)
	*p = clusterProc{
		depot: cl.depot, factor: cl.Factor, parentPort: -1, port: row(p.port, info.Degree),
		upRecs: p.upRecs[:0], queue: p.queue.recycled(),
		overlay: p.overlay[:0], fl: p.fl, early: p.early[:0], slab: p.slab.rewound(),
	}
	return p
}

// cKind tags the cluster wire record.
type cKind uint8

const (
	cJoin   cKind = iota // join the sender's cluster (phase 1)
	cAccept              // joined: the sender is the receiver's child
	cReject              // refused: the sender is in cluster already
	cRec                 // a retained inter-cluster edge, streamed up or down (phase 2)
	cEnd                 // the end of a record stream
	cMark                // the edge is in the phase-3 overlay
)

// stage is the order a Round handles the kinds in: joins first, so that
// same-round joins and answers are handled consistently, then the answers,
// then the record streams; marks before all of them.
var stage = [...]int{cMark: 0, cJoin: 1, cAccept: 2, cReject: 2, cRec: 3, cEnd: 3}

// cMsg is the one wire record of the protocol's own traffic (the phase-3
// flood sends *flMsg), sent as *cMsg from the sender's slab, the way kMsg
// is. Records travel one per message.
type cMsg struct {
	kind    cKind
	down    bool  // cRec, cEnd: the final set streaming down, not a subtree's streaming up
	cluster int64 // cJoin, cReject: the sender's cluster
	rec     record
}

// Bits implements sim.Payload.
func (m *cMsg) Bits() int {
	switch m.kind {
	case cJoin, cReject:
		return 3 + sim.BitsFor(m.cluster)
	case cRec:
		return 4 + sim.BitsFor(m.rec.other) + sim.BitsFor(m.rec.owner) + sim.BitsFor(int64(m.rec.ownPort))
	case cEnd:
		return 4
	default: // cAccept, cMark
		return 3
	}
}

// The field-less records, shared by every sender.
var (
	msgAccept  = &cMsg{kind: cAccept}
	msgMark    = &cMsg{kind: cMark}
	msgEndUp   = &cMsg{kind: cEnd}
	msgEndDown = &cMsg{kind: cEnd, down: true}
)

// record is a retained inter-cluster edge: the foreign cluster, the
// in-cluster endpoint's identity and that endpoint's port for the edge.
type record struct {
	other   int64
	owner   int64
	ownPort int
}

// cPort is what a node knows about one of its ports.
type cPort struct {
	heard   bool  // a JOIN or a REJECT told the neighbour's cluster
	cluster int64 // the neighbour's cluster, once heard
	child   bool  // the neighbour joined this node's tree
	marked  bool  // the far side's record kept the edge for the overlay
	owned   int   // records of the final set that name this node and port
}

type clusterProc struct {
	depot  *boxDepot
	factor float64
	me     int64
	// port is indexed by port.
	port []cPort

	// Phase 1 state.
	joined     bool
	cluster    int64
	parentPort int
	awaiting   int // JOIN answers still outstanding

	// Phase 2 state.
	endUpLeft int      // children whose up-stream has not ended yet
	upRecs    []record // one per foreign cluster, ascending by it
	sentUp    bool
	queue     drip[*cMsg]

	// Phase 3 state.
	inPh3   bool
	overlay []int // the flood's ports, ascending
	fl      flooder
	// early holds, in arrival order, the flood records that arrive before
	// this node is in phase 3 (its neighbours may get there first); the
	// round that enters phase 3 handles them as one inbox.
	early []sim.Message

	// slab holds the records this node sends (see cMsg).
	slab slab[cMsg]
}

func (p *clusterProc) Start(c *sim.Context) {
	p.me = c.ID()
	if !c.HasID() {
		p.me = c.Rand().Int63()
	}
	n := c.Know().N
	prob := p.factor * 8 * math.Log(float64(n)+1) / float64(n)
	if prob > 1 {
		prob = 1
	}
	if c.Rand().Float64() < prob { // a candidate
		p.joined = true
		p.cluster = p.me
		p.awaiting = c.Degree()
		c.Broadcast(p.slab.box(cMsg{kind: cJoin, cluster: p.cluster}))
		p.maybeFinishPhase1(c)
	}
}

// clusterRate bounds the phase-2 records a port carries per round.
const clusterRate = 2

func (p *clusterProc) Round(c *sim.Context, inbox []sim.Message) {
	// Quiet round: no phase counts rounds — joins, record streams and the
	// phase-3 flood all advance on deliveries or on queued sends — so with
	// nothing arrived and nothing queued there is nothing to do.
	if len(inbox) == 0 && p.queue.idle() && (!p.inPh3 || p.fl.idle()) {
		c.IdleUntil(sim.Forever)
		return
	}
	for _, in := range inbox {
		switch m := in.Payload.(type) {
		case *cMsg:
			if m.kind == cMark {
				p.port[in.Port].marked = true
				if p.inPh3 {
					p.fl.addPort(in.Port)
				}
			}
		case *flMsg:
			if !p.inPh3 {
				p.early = append(p.early, in)
			}
		}
	}
	for st := stage[cJoin]; st <= stage[cRec]; st++ {
		for _, in := range inbox {
			if m, ok := in.Payload.(*cMsg); ok && stage[m.kind] == st {
				p.handle(c, in.Port, m)
			}
		}
	}
	p.queue.flush(c, c.Degree(), clusterRate)
	if p.inPh3 {
		if len(p.early) > 0 { // entered phase 3 this round: early has the inbox's records too
			p.fl.round(p.early)
			clear(p.early)
			p.early = p.early[:0]
		} else {
			p.fl.round(inbox)
		}
		p.fl.settle(c)
	}
}

// handle is one record of the protocol's own traffic.
func (p *clusterProc) handle(c *sim.Context, port int, m *cMsg) {
	switch m.kind {
	case cJoin:
		p.port[port].heard, p.port[port].cluster = true, m.cluster
		if p.joined {
			c.Send(port, p.slab.box(cMsg{kind: cReject, cluster: p.cluster}))
			return
		}
		// First join request wins: adopt the cluster and keep flooding.
		p.joined = true
		p.cluster = m.cluster
		p.parentPort = port
		p.awaiting = c.Degree() - 1
		c.Send(port, msgAccept)
		c.BroadcastExcept(port, p.slab.box(cMsg{kind: cJoin, cluster: p.cluster}))
		p.maybeFinishPhase1(c)
	case cAccept, cReject:
		if m.kind == cAccept {
			p.port[port].child = true
			p.endUpLeft++
		} else {
			p.port[port].heard, p.port[port].cluster = true, m.cluster
		}
		p.awaiting--
		p.maybeFinishPhase1(c)
	case cRec:
		if !m.down {
			p.addUp(m.rec) // sparsify: one edge per foreign cluster
			return
		}
		p.own(m.rec)
		p.pushChildren(m) // stream onward immediately (pipelined broadcast)
	case cEnd:
		if !m.down {
			p.endUpLeft--
			p.maybeSendUp(c)
			return
		}
		p.pushChildren(m)
		p.enterPhase3(c)
	}
}

// addUp keeps r unless a record toward its foreign cluster is kept already.
func (p *clusterProc) addUp(r record) {
	i, found := slices.BinarySearchFunc(p.upRecs, r.other, func(u record, other int64) int { return cmp.Compare(u.other, other) })
	if !found {
		p.upRecs = slices.Insert(p.upRecs, i, r)
	}
}

// own counts r toward its port when this node is its owner.
func (p *clusterProc) own(r record) {
	if r.owner == p.me {
		p.port[r.ownPort].owned++
	}
}

// pushChildren queues m on every tree-child port.
func (p *clusterProc) pushChildren(m *cMsg) {
	for port := range p.port {
		if p.port[port].child {
			p.queue.push(port, m)
		}
	}
}

// maybeFinishPhase1 fires when every JOIN answer arrived: the local tree
// neighborhood is known, so this node's own inter-cluster records are
// final and the phase-2 convergecast can include them. A foreign cluster
// reachable through several ports is recorded through the lowest.
func (p *clusterProc) maybeFinishPhase1(c *sim.Context) {
	if !p.joined || p.awaiting > 0 {
		return
	}
	p.upRecs = reserve(p.upRecs, len(p.port)) // at most one more per port
	for port, pt := range p.port {
		if pt.heard && pt.cluster != p.cluster {
			p.addUp(record{other: pt.cluster, owner: p.me, ownPort: port})
		}
	}
	p.maybeSendUp(c)
}

// maybeSendUp streams the merged subtree records to the parent once every
// child stream has ended (leaves stream immediately).
func (p *clusterProc) maybeSendUp(c *sim.Context) {
	if p.sentUp || p.awaiting > 0 || !p.joined || p.endUpLeft > 0 {
		return
	}
	p.sentUp = true
	if p.parentPort < 0 {
		// The candidate owns the final sparsified inter-cluster graph:
		// broadcast it down and start phase 3.
		for _, r := range p.upRecs {
			p.own(r)
			p.pushChildren(p.slab.box(cMsg{kind: cRec, down: true, rec: r}))
		}
		p.pushChildren(msgEndDown)
		p.enterPhase3(c)
		return
	}
	p.queue.q = reserve(p.queue.q, len(p.upRecs)+1) // the stream in one allocation
	for _, r := range p.upRecs {
		p.queue.push(p.parentPort, p.slab.box(cMsg{kind: cRec, rec: r}))
	}
	p.queue.push(p.parentPort, msgEndUp)
}

// enterPhase3 computes the overlay ports and starts the f(n)=n election.
func (p *clusterProc) enterPhase3(c *sim.Context) {
	if p.inPh3 {
		return
	}
	p.inPh3 = true
	// Never nil on a node with ports: nil would mean every port.
	p.overlay = reserve(p.overlay[:0], c.Degree())
	for port, pt := range p.port {
		for range pt.owned { // the far side learns that the edge is kept
			c.Send(port, msgMark)
		}
		if port == p.parentPort || pt.child || pt.marked || pt.owned > 0 {
			p.overlay = append(p.overlay, port)
		}
	}
	initFlooder(&p.fl, c.Degree(), p.overlay, true, tagPhaseB, c, p.depot)
	self := drawKey(c, rankSpace(c.Know().N))
	// Anonymous networks reuse the phase-1 identity as the tiebreak token.
	if !c.HasID() {
		self.origin = p.me
	}
	p.fl.start(self, 0)
	p.fl.settle(c)
}

func init() {
	register(Spec{
		Name:    "cluster",
		Result:  "Thm 4.7",
		Summary: "Θ(log n) BFS clusters, sparsified inter-edges, overlay least-el; O(D log n) time, O(m+n log n) msgs whp",
		NeedsN:  true,
		Quiet:   true,
		Bound:   Bound{Msgs: Term{"m+n·log n", func(n, m, d int) float64 { return float64(m) + float64(n)*log2(n) }}, Rounds: termDLogN, Success: WHP},
		New:     func(o Options) sim.Recycler { return Cluster{Factor: o.clusterFactor(), depot: o.depot} },
	})
}
