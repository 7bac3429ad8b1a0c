package core

import (
	"math"
	"sort"

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
}

var _ sim.Recycler = Cluster{}

// Name implements sim.Protocol.
func (Cluster) Name() string { return "cluster" }

// New implements sim.Protocol.
func (cl Cluster) New(info sim.NodeInfo) sim.Process { return cl.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a cluster process, in
// old's tables, scratch and flooder when old is a cluster process. Records
// that arrived before phase 3 of a run that ended first are dropped, so that
// they pin no box.
func (cl Cluster) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[clusterProc](old)
	p.fl.recycle()
	*p = clusterProc{
		factor: cl.Factor, parentPort: -1,
		childPorts: emptied(p.childPorts), nbrCluster: emptied(p.nbrCluster),
		upRecs: emptied(p.upRecs), finalRecs: p.finalRecs[:0],
		markPorts: emptied(p.markPorts), queue: portQueue{emptied(p.queue.q)},
		fl:      p.fl,
		joinBuf: p.joinBuf[:0], answerBuf: p.answerBuf[:0], recBuf: p.recBuf[:0],
	}
	return p
}

// Cluster-algorithm message types. Records travel one per message: a
// retained inter-cluster edge identified by (foreign cluster, owner node,
// owner port).
type (
	cJoin   struct{ cluster int64 }
	cAccept struct{}
	cReject struct{ cluster int64 }
	cRec    struct {
		down    bool
		other   int64 // foreign cluster id
		owner   int64 // in-cluster endpoint's identity
		ownPort int   // owner's port for the edge
	}
	cEnd  struct{ down bool }
	cMark struct{}
)

func (m cJoin) Bits() int   { return 3 + sim.BitsFor(m.cluster) }
func (cAccept) Bits() int   { return 3 }
func (m cReject) Bits() int { return 3 + sim.BitsFor(m.cluster) }
func (m cRec) Bits() int {
	return 4 + sim.BitsFor(m.other) + sim.BitsFor(m.owner) + sim.BitsFor(int64(m.ownPort))
}
func (cEnd) Bits() int  { return 4 }
func (cMark) Bits() int { return 3 }

// Package-level singletons for the field-less (and two-valued) payloads:
// sending one never converts a fresh value into the Payload interface.
var (
	msgAccept  sim.Payload = cAccept{}
	msgMark    sim.Payload = cMark{}
	msgEndUp   sim.Payload = cEnd{}
	msgEndDown sim.Payload = cEnd{down: true}
)

// record is a retained inter-cluster edge.
type record struct {
	other   int64
	owner   int64
	ownPort int
}

type clusterProc struct {
	factor float64
	me     int64

	// Phase 1 state.
	joined     bool
	cluster    int64
	parentPort int
	childPorts map[int]bool
	awaiting   int // JOIN answers still outstanding
	nbrCluster map[int]int64

	// Phase 2 state.
	endUpLeft int // children whose up-stream has not ended yet
	upRecs    map[int64]record
	sentUp    bool
	finalRecs []record
	markPorts map[int]bool
	queue     portQueue

	// Phase 3 state.
	inPh3 bool
	fl    flooder
	// early holds, in arrival order, the flood records that arrive before
	// this node is in phase 3 (its neighbours may get there first); the
	// round that enters phase 3 handles them as one inbox.
	early []sim.Message

	// Reusable per-round classification scratch.
	joinBuf, answerBuf, recBuf []sim.Message
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
		c.Broadcast(cJoin{cluster: p.cluster})
		p.maybeFinishPhase1(c)
	}
}

func (p *clusterProc) Round(c *sim.Context, inbox []sim.Message) {
	// Quiet round: no phase counts rounds — joins, record streams and the
	// phase-3 flood all advance on deliveries or on queued sends — so with
	// nothing arrived and nothing queued there is nothing to do.
	if len(inbox) == 0 && p.queue.empty() && (!p.inPh3 || p.fl.idle()) {
		c.IdleUntil(sim.Forever)
		return
	}
	// Collect per-kind, processing joins first so that same-round
	// joins/answers are handled consistently.
	joins, answers, recs := p.joinBuf[:0], p.answerBuf[:0], p.recBuf[:0]
	for _, in := range inbox {
		switch in.Payload.(type) {
		case cJoin:
			joins = append(joins, in)
		case cAccept, cReject:
			answers = append(answers, in)
		case cRec, cEnd:
			recs = append(recs, in)
		case cMark:
			p.markPorts[in.Port] = true
			if p.inPh3 {
				p.fl.addPort(in.Port)
			}
		case *flMsg:
			if !p.inPh3 {
				p.early = append(p.early, in)
			}
		}
	}
	p.joinBuf, p.answerBuf, p.recBuf = joins, answers, recs
	for _, in := range joins {
		p.handleJoin(c, in.Port, in.Payload.(cJoin))
	}
	for _, in := range answers {
		p.handleAnswer(c, in.Port, in.Payload)
	}
	for _, in := range recs {
		p.handleRec(c, in.Port, in.Payload)
	}
	p.queue.flush(func(port int, pl sim.Payload) { c.Send(port, pl) }, 2)
	if p.inPh3 {
		if p.early != nil { // entered phase 3 this round: early has the inbox's records too
			inbox, p.early = p.early, nil
		}
		p.fl.round(inbox)
		p.fl.settle(c)
	}
}

func (p *clusterProc) handleJoin(c *sim.Context, port int, m cJoin) {
	p.nbrCluster[port] = m.cluster
	if p.joined {
		c.Send(port, cReject{cluster: p.cluster})
		return
	}
	// First join request wins: adopt the cluster and keep flooding.
	p.joined = true
	p.cluster = m.cluster
	p.parentPort = port
	p.awaiting = c.Degree() - 1
	c.Send(port, msgAccept)
	c.BroadcastExcept(port, cJoin{cluster: p.cluster})
	p.maybeFinishPhase1(c)
}

func (p *clusterProc) handleAnswer(c *sim.Context, port int, pl sim.Payload) {
	switch m := pl.(type) {
	case cAccept:
		p.childPorts[port] = true
		p.endUpLeft++
	case cReject:
		p.nbrCluster[port] = m.cluster
	}
	p.awaiting--
	p.maybeFinishPhase1(c)
}

// maybeFinishPhase1 fires when every JOIN answer arrived: the local tree
// neighborhood is known, so this node's own inter-cluster records are
// final and the phase-2 convergecast can include them.
func (p *clusterProc) maybeFinishPhase1(c *sim.Context) {
	if !p.joined || p.awaiting > 0 {
		return
	}
	// Ascending port order: a foreign cluster reachable through several
	// ports must be recorded through the same (lowest) port on every run,
	// or the retained edge — and with it the whole transcript — would
	// depend on map iteration order.
	ports := make([]int, 0, len(p.nbrCluster))
	for port := range p.nbrCluster {
		ports = append(ports, port)
	}
	sort.Ints(ports)
	for _, port := range ports {
		cl := p.nbrCluster[port]
		if cl == p.cluster {
			continue
		}
		if _, ok := p.upRecs[cl]; !ok {
			p.upRecs[cl] = record{other: cl, owner: p.me, ownPort: port}
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
		p.rootFinish(c)
		return
	}
	for _, cl := range sortedClusters(p.upRecs) {
		r := p.upRecs[cl]
		p.queue.push(p.parentPort, cRec{other: r.other, owner: r.owner, ownPort: r.ownPort})
	}
	p.queue.push(p.parentPort, msgEndUp)
}

// rootFinish: the candidate owns the final sparsified inter-cluster graph;
// broadcast it down and start phase 3.
func (p *clusterProc) rootFinish(c *sim.Context) {
	for _, cl := range sortedClusters(p.upRecs) {
		p.finalRecs = append(p.finalRecs, p.upRecs[cl])
	}
	p.pushDown(c, p.finalRecs)
	p.enterPhase3(c)
}

func (p *clusterProc) pushDown(c *sim.Context, recs []record) {
	for port := range p.childPorts {
		for _, r := range recs {
			p.queue.push(port, cRec{down: true, other: r.other, owner: r.owner, ownPort: r.ownPort})
		}
		p.queue.push(port, msgEndDown)
	}
}

func (p *clusterProc) handleRec(c *sim.Context, port int, pl sim.Payload) {
	switch m := pl.(type) {
	case cRec:
		if m.down {
			p.finalRecs = append(p.finalRecs, record{other: m.other, owner: m.owner, ownPort: m.ownPort})
			// Stream onward immediately (pipelined broadcast).
			for ch := range p.childPorts {
				p.queue.push(ch, m)
			}
		} else {
			r := record{other: m.other, owner: m.owner, ownPort: m.ownPort}
			if _, ok := p.upRecs[m.other]; !ok {
				p.upRecs[m.other] = r // sparsify: one edge per foreign cluster
			}
		}
	case cEnd:
		if m.down {
			for ch := range p.childPorts {
				p.queue.push(ch, m)
			}
			p.enterPhase3(c)
		} else {
			p.endUpLeft--
			p.maybeSendUp(c)
		}
	}
}

// enterPhase3 computes the overlay ports and starts the f(n)=n election.
func (p *clusterProc) enterPhase3(c *sim.Context) {
	if p.inPh3 {
		return
	}
	p.inPh3 = true
	ports := make(map[int]bool)
	if p.parentPort >= 0 {
		ports[p.parentPort] = true
	}
	for ch := range p.childPorts {
		ports[ch] = true
	}
	for _, r := range p.finalRecs {
		if r.owner == p.me {
			ports[r.ownPort] = true
			c.Send(r.ownPort, msgMark)
		}
	}
	for mp := range p.markPorts {
		ports[mp] = true
	}
	sorted := make([]int, 0, len(ports))
	for q := range ports {
		sorted = append(sorted, q)
	}
	sort.Ints(sorted)
	initFlooder(&p.fl, c.Degree(), sorted, true, tagPhaseB, c)
	self := drawKey(c, rankSpace(c.Know().N))
	// Anonymous networks reuse the phase-1 identity as the tiebreak token.
	if !c.HasID() {
		self.origin = p.me
	}
	p.fl.start(self, 0)
	p.fl.settle(c)
}

func sortedClusters(m map[int64]record) []int64 {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func init() {
	register(Spec{
		Name:    "cluster",
		Result:  "Thm 4.7",
		Summary: "Θ(log n) BFS clusters, sparsified inter-edges, overlay least-el; O(D log n) time, O(m+n log n) msgs whp",
		NeedsN:  true,
		Quiet:   true,
		New:     func(o Options) sim.Recycler { return Cluster{Factor: o.clusterFactor()} },
	})
}
