package core

import "ule/internal/sim"

// FloodMax is the classic time-optimal baseline attributed to Peleg [20]:
// every node floods the largest identifier it has seen; after D+1 rounds
// the unique maximum is known everywhere and its owner elects itself.
// Time O(D); messages O(m·min(n, D)) — message-wasteful, which is exactly
// the gap the paper's algorithms close.
type FloodMax struct{}

// New implements sim.Protocol.
func (f FloodMax) New(info sim.NodeInfo) sim.Process { return f.Renew(nil, info) }

// Renew implements sim.Recycler.
func (FloodMax) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[floodProc](old)
	*p = floodProc{slab: p.slab.rewound()}
	return p
}

// idMsg is the wire record: the largest identifier the sender has seen.
// It travels as a pointer into the sender's slab, so a Broadcast boxes
// nothing.
type idMsg struct{ id int64 }

func (m idMsg) Bits() int { return sim.BitsFor(m.id) }

type floodProc struct {
	me, max  int64
	deadline int
	slab     slab[idMsg]
}

func (p *floodProc) Start(c *sim.Context) {
	p.me = c.ID() // NeedsIDs: Prepared refuses an anonymous run
	p.max = p.me
	// The maximum ID reaches every node within D hops; one extra round
	// accounts for the initial send.
	p.deadline = c.Round() + c.Know().D + 1
	c.Broadcast(p.slab.box(idMsg{p.me}))
}

func (p *floodProc) Round(c *sim.Context, inbox []sim.Message) {
	improved := false
	for _, in := range inbox {
		m, ok := in.Payload.(*idMsg)
		if !ok {
			continue
		}
		if m.id > p.max {
			p.max = m.id
			improved = true
		}
	}
	if improved && c.Round() < p.deadline {
		c.Broadcast(p.slab.box(idMsg{p.max}))
	}
	if c.Round() >= p.deadline {
		if p.max == p.me {
			c.Decide(sim.Leader)
		} else {
			c.Decide(sim.NonLeader)
		}
		c.Halt()
	} else if len(inbox) == 0 {
		// Silent until the deadline unless a larger ID arrives. Said only
		// after a quiet round: a node in the thick of the flood would be
		// parked and roused again every round.
		c.IdleUntil(p.deadline)
	}
}

func init() {
	register(Spec{
		Name:          "flood",
		Result:        "[20] baseline",
		Summary:       "max-ID flooding; O(D) time, O(m·min(n,D)) msgs, deterministic",
		Deterministic: true,
		NeedsD:        true,
		NeedsIDs:      true,
		Bound:         Bound{Msgs: Term{"m·D", func(n, m, d int) float64 { return float64(m * d) }}, Rounds: termD, Winner: MaxID},
		New:           func(o Options) sim.Recycler { return FloodMax{} },
	})
}
