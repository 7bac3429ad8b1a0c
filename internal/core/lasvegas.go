package core

import "ule/internal/sim"

// LasVegas is the Corollary 4.6 algorithm: with knowledge of both n and D,
// leader election with probability 1 in expected O(D) time and expected
// O(m) messages.
//
// Time is sliced into epochs of length 2D+4 rounds. At each epoch start
// every node independently becomes a candidate with probability f/n for a
// constant f, and the epoch runs the Theorem 4.4.(B) least-element flood.
// If the epoch stays completely silent (no candidate anywhere — detectable
// because with at least one candidate the flood reaches every node within D
// rounds), everyone restarts with fresh coins. The expected number of
// epochs is the constant 1/(1−e^−f).
type LasVegas struct {
	depot *boxDepot // Options.depot
}

// lvCandidates is f, the expected number of candidates per epoch.
const lvCandidates = 4

// New implements sim.Protocol.
func (l LasVegas) New(info sim.NodeInfo) sim.Process { return l.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a Las Vegas process,
// keeping the flooder storage of old when old is one.
func (l LasVegas) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[lvProc](old)
	p.fl.recycle()
	*p = lvProc{depot: l.depot, fl: p.fl}
	return p
}

type lvProc struct {
	depot    *boxDepot
	epochEnd int
	fl       flooder
	active   bool // any message seen or candidacy held this epoch
}

func (p *lvProc) Start(c *sim.Context) {
	p.startEpoch(c)
}

func (p *lvProc) startEpoch(c *sim.Context) {
	d := c.Know().D
	p.epochEnd = c.Round() + 2*d + 3
	initFlooder(&p.fl, c.Degree(), nil, true, tagPhaseB, c, p.depot)
	n := c.Know().N
	prob := lvCandidates / float64(n)
	if prob > 1 {
		prob = 1
	}
	p.active = c.Rand().Float64() < prob // a candidate
	if p.active {
		p.fl.start(drawKey(c, rankSpace(n)), 0)
		p.fl.flush()
	}
}

func (p *lvProc) Round(c *sim.Context, inbox []sim.Message) {
	// Quiet round inside the epoch: nothing arrived and nothing is queued,
	// so the flooder cannot change; only the epoch boundary counts rounds.
	if len(inbox) == 0 && p.fl.idle() && c.Round() < p.epochEnd {
		c.IdleUntil(p.epochEnd)
		return
	}
	if p.fl.round(inbox) > 0 {
		p.active = true
	}
	if c.Round() < p.epochEnd {
		return
	}
	// Epoch boundary: with any candidate present, every node observed
	// traffic (the minimum rank floods everywhere within D rounds), so the
	// outcome is consistent network-wide. Only a candidate's own flood
	// completes, and it completes once per epoch.
	if p.active {
		if p.fl.completed && p.fl.won {
			c.Decide(sim.Leader)
		} else {
			c.Decide(sim.NonLeader)
		}
		c.Halt()
		return
	}
	p.startEpoch(c)
}

func init() {
	register(Spec{
		Name:    "lasvegas",
		Result:  "Cor 4.6",
		Summary: "epoch-restarted f=Θ(1) least-el; knows n and D, prob 1, expected O(D) time and O(m) msgs",
		NeedsN:  true,
		NeedsD:  true,
		Bound:   Bound{Msgs: termM, Rounds: termD},
		New:     func(o Options) sim.Recycler { return LasVegas{depot: o.depot} },
	})
}
