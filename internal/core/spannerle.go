package core

import (
	"math"

	"ule/internal/sim"
)

// SpannerLE is the Corollary 4.2 algorithm: build a Baswana–Sen
// n^(1+1/k)-edge spanner in O(k²) rounds and O(k·m) messages, then run the
// least-element election restricted to spanner edges. For graphs with
// m > n^(1+ε) and k = ⌈2/ε⌉ this matches both lower bounds: O(D) time and
// O(m) expected messages, with success whp (probability 1 here thanks to
// ID tiebreaks).
type SpannerLE struct {
	// K is the Baswana–Sen parameter (stretch 2k−1), at least 2
	// (Options.SpannerK).
	K int
}

// New implements sim.Protocol.
func (s SpannerLE) New(info sim.NodeInfo) sim.Process { return s.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a spanner-election
// process, in the construction's storage and the flooder of old when old
// is one.
func (s SpannerLE) Renew(old sim.Process, info sim.NodeInfo) sim.Process {
	p := reuse[spannerLEProc](old)
	p.fl.recycle()
	*p = spannerLEProc{bs: p.bs.renewed(s.K, info), fl: p.fl}
	return p
}

type spannerLEProc struct {
	bs       baswanaSen
	startRd  int
	electing bool
	fl       flooder
}

func (p *spannerLEProc) Start(c *sim.Context) {
	p.bs.cluster = c.ID()
	if !c.HasID() {
		p.bs.cluster = c.Rand().Int63()
	}
	p.startRd = c.Round()
}

func (p *spannerLEProc) Round(c *sim.Context, inbox []sim.Message) {
	if !p.electing {
		// No idle hint here: the Baswana–Sen schedule counts rounds, so a
		// step on an empty inbox still advances the construction.
		if p.bs.step(c, c.Round()-p.startRd, inbox) {
			p.beginElection(c)
		}
		return
	}
	// Quiet round of the election: nothing arrived and nothing is queued,
	// so the flooder and every decision check stand where they stood.
	if len(inbox) == 0 && p.fl.idle() {
		c.IdleUntil(sim.Forever)
		return
	}
	p.fl.round(inbox)
	p.fl.settle(c)
}

// beginElection switches to the least-element election on spanner ports.
// All nodes switch in the same round because the spanner schedule length is
// a network-wide constant.
func (p *spannerLEProc) beginElection(c *sim.Context) {
	p.electing = true
	ports := p.bs.spannerPorts()
	if len(ports) == 0 {
		// Defensive fallback; the construction guarantees every node an
		// incident spanner edge in connected graphs (tested), but a
		// disconnected overlay must never elect extra leaders: flood on
		// every port instead.
		ports = nil
	}
	initFlooder(&p.fl, c.Degree(), ports, true, tagPhaseB, c)
	p.fl.start(drawKey(c, rankSpace(c.Know().N)), 0)
	p.fl.flush()
	p.fl.settle(c)
}

// baswanaSen is one node's state of the distributed Baswana–Sen randomized
// (2k−1)-spanner construction [6]: in O(k²) rounds and O(k·m) messages it
// selects an expected O(k·n^(1+1/k)) subset of edges that preserves
// connectivity with stretch at most 2k−1.
//
// The construction runs k−1 clustering iterations on a fixed, globally
// known round schedule. Initially every vertex is a singleton cluster. In
// iteration i, every cluster is sampled with probability n^(−1/k); a
// vertex of an unsampled cluster joins an adjacent sampled cluster if one
// exists (adding the connecting edge to the spanner) and otherwise adds one
// edge toward every adjacent cluster and settles (drops out of the
// clustering). A final iteration adds one edge per adjacent cluster for all
// still-clustered vertices.
type baswanaSen struct {
	k       int
	prob    float64
	cluster int64 // the node's identity until it joins another cluster
	sampled bool
	active  bool
	center  bool
	// port is indexed by port.
	port []bsPort
	// picked is markForeign's scratch: the clusters an edge was added
	// toward.
	picked map[int64]bool
	// ports is the kept storage of spannerPorts.
	ports []int
	// slab holds the records this node sends (see bsMsg).
	slab slab[bsMsg]
}

// bsPort is what the construction knows about one port.
type bsPort struct {
	marked  bool  // the edge entered the spanner
	child   bool  // the neighbour joined this node's cluster through the edge
	heard   bool  // this iteration's announcement arrived: cluster, sampled
	sampled bool  // the announced cluster was sampled
	cluster int64 // the announced cluster
}

// bsMsg is the wire record of the construction, sent as *bsMsg from the
// sender's slab, the way kMsg is.
type bsMsg struct {
	kind    uint8
	sampled bool
	cluster int64
}

// Kinds of bsMsg.
const (
	bsSample  uint8 = iota + 1 // down-tree sampling verdict
	bsCluster                  // neighbour announcement (cluster, sampled)
	bsJoin                     // join a sampled cluster through this edge
	bsMark                     // this edge entered the spanner
)

// Bits implements sim.Payload.
func (m *bsMsg) Bits() int { return 3 + sim.BitsFor(m.cluster) + 1 }

// renewed returns the construction's initial state on a node, in m's
// storage; k and the n of info.Know must be network-wide constants. The
// node's identity becomes its cluster at Start.
func (m *baswanaSen) renewed(k int, info sim.NodeInfo) baswanaSen {
	k = max(k, 2)
	clear(m.picked)
	return baswanaSen{
		k: k, prob: math.Pow(float64(info.Know.N), -1/float64(k)), active: true, center: true,
		port: row(m.port, info.Degree), picked: m.picked, ports: m.ports[:0], slab: m.slab.rewound(),
	}
}

// spannerPorts returns the ports whose edges entered the spanner,
// ascending. Valid once step has reported done.
func (m *baswanaSen) spannerPorts() []int {
	m.ports = m.ports[:0]
	for p, pt := range m.port {
		if pt.marked {
			m.ports = append(m.ports, p)
		}
	}
	return m.ports
}

// step advances the construction by one round. rel is the round index
// relative to the construction start (0-based); msgs are this round's
// messages. It reports whether the construction is finished.
func (m *baswanaSen) step(c *sim.Context, rel int, msgs []sim.Message) bool {
	// Locate (iteration, offset) on the fixed schedule: k−1 iterations of
	// i+3 rounds (sampling broadcast of depth i, neighbour exchange,
	// join/settle, acknowledgment) plus a 3-round final iteration.
	iter, off, rest := 0, rel, rel
	for iter <= m.k-2 && rest >= iter+3 {
		rest -= iter + 3
		iter++
		off = rest
	}
	final := iter > m.k-2
	if off == 0 { // a new iteration: the last one's announcements are void
		for p := range m.port {
			m.port[p].heard = false
		}
	}
	// Marks and joins are edge-level and carry no schedule dependency. The
	// final iteration hears announcements in its second round only.
	var sample *bsMsg
	for _, in := range msgs {
		mm, ok := in.Payload.(*bsMsg)
		if !ok {
			continue
		}
		pt := &m.port[in.Port]
		switch mm.kind {
		case bsMark:
			pt.marked = true
		case bsJoin:
			pt.marked, pt.child = true, true
		case bsCluster:
			if !final || off == 1 {
				pt.heard, pt.cluster, pt.sampled = true, mm.cluster, mm.sampled
			}
		case bsSample:
			sample = mm
		}
	}
	if sample != nil && m.active && !m.center {
		// Sampling verdict travels down the cluster tree.
		m.sampled = sample.sampled
		m.toChildren(c)
	}
	if final {
		if off == 0 && m.active {
			c.Broadcast(m.slab.box(bsMsg{kind: bsCluster, cluster: m.cluster, sampled: m.sampled}))
		}
		if off == 1 && m.active {
			// Still-clustered vertices add one edge per adjacent cluster.
			m.markForeign(c)
		}
		return off >= 2
	}
	if off == 0 && m.active && m.center {
		// Centers flip the sampling coin and push the verdict down.
		m.sampled = c.Rand().Float64() < m.prob
		m.toChildren(c)
	}
	if off == iter && m.active {
		// Everyone knows its cluster's verdict now (tree depth <= iter):
		// announce to all neighbours.
		c.Broadcast(m.slab.box(bsMsg{kind: bsCluster, cluster: m.cluster, sampled: m.sampled}))
	}
	if off == iter+1 && m.active && !m.sampled {
		// Members of unsampled clusters join the sampled cluster announced
		// on the lowest port, or settle.
		for p, pt := range m.port {
			if pt.heard && pt.sampled {
				m.join(c, p)
				return false
			}
		}
		m.active, m.center = false, false
		m.markForeign(c)
	}
	return false
}

// toChildren sends the sampling verdict down the cluster tree.
func (m *baswanaSen) toChildren(c *sim.Context) {
	b := m.slab.box(bsMsg{kind: bsSample, cluster: m.cluster, sampled: m.sampled})
	for p, pt := range m.port {
		if pt.child {
			c.Send(p, b)
		}
	}
}

// join moves this vertex into the sampled cluster announced on port p.
func (m *baswanaSen) join(c *sim.Context, p int) {
	m.cluster = m.port[p].cluster
	m.sampled = true
	m.center = false
	for q := range m.port {
		m.port[q].child = false
	}
	m.port[p].marked = true
	c.Send(p, m.slab.box(bsMsg{kind: bsJoin, cluster: m.cluster}))
}

// markForeign adds one spanner edge toward every adjacent foreign cluster
// announced this iteration, through the lowest port that announced it.
func (m *baswanaSen) markForeign(c *sim.Context) {
	if m.picked == nil {
		m.picked = make(map[int64]bool)
	}
	clear(m.picked)
	for p := range m.port {
		pt := &m.port[p]
		if !pt.heard || pt.cluster == m.cluster || m.picked[pt.cluster] {
			continue
		}
		m.picked[pt.cluster] = true
		pt.marked = true
		c.Send(p, m.slab.box(bsMsg{kind: bsMark, cluster: pt.cluster}))
	}
}

func init() {
	register(Spec{
		Name:    "spanner-le",
		Result:  "Cor 4.2",
		Summary: "Baswana–Sen spanner then least-el on it; O(D) time, O(m) msgs when m>n^(1+ε), whp",
		NeedsN:  true,
		Quiet:   true,
		Bound:   Bound{Msgs: termM, Rounds: termD, Success: WHP},
		New:     func(o Options) sim.Recycler { return SpannerLE{K: o.spannerK()} },
	})
}
