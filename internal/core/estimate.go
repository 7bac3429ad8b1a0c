package core

import "ule/internal/sim"

// Estimate is the Corollary 4.5 algorithm: leader election with probability
// 1 in O(D) time and O(m·min(log n, D)) messages whp, with NO knowledge of
// n (or any other parameter).
//
// Phase A (size estimation): every node flips a fair coin until heads and
// floods its count X_u with max semantics and echo termination; the global
// maximum X̄ concentrates around log2 n, so n̂ = 2^X̄ satisfies
// n̂ ∈ [Ω(n/log n), O(n²)] whp. The unique node holding the maximum
// (X, ID) pair learns, from its echo completion, that everyone has X̄, and
// launches phase B by flooding a start signal.
//
// Phase B: the least-element-list election of Theorem 4.4 with every node a
// candidate, rank space n̂⁴, and ties broken by unique IDs — hence success
// with probability 1. Nodes reached by a phase-B rank before the start
// signal join phase B on the spot (the rank message carries X̄), which
// preserves the flood-timing argument despite the skewed starts.
type Estimate struct {
	depot *boxDepot // Options.depot
}

// New implements sim.Protocol.
func (e Estimate) New(info sim.NodeInfo) sim.Process { return e.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a size-estimating
// process, keeping the storage of both flooders when old is one.
func (e Estimate) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[estimateProc](old)
	p.flA.recycle()
	p.flB.recycle()
	*p = estimateProc{depot: e.depot, flA: p.flA, flB: p.flB}
	return p
}

// startBMsg floods the phase-B start signal carrying X̄.
type startBMsg struct{ xbar int64 }

func (m startBMsg) Bits() int { return 3 + sim.BitsFor(m.xbar) }

type estimateProc struct {
	depot    *boxDepot
	flA, flB flooder // phase A (max) and phase B (min), sharing every inbox and a shelf
	inB      bool
	startFwd bool
	sawAWin  bool
}

func (p *estimateProc) Start(c *sim.Context) {
	initFlooder(&p.flA, c.Degree(), nil, false, tagPhaseA, c, p.depot)
	initFlooder(&p.flB, c.Degree(), nil, true, tagPhaseB, c, p.depot)
	// Geometric draw: flips until the first heads.
	x := int64(1)
	for c.Rand().Intn(2) == 0 {
		x++
	}
	origin := c.ID()
	if !c.HasID() {
		origin = c.Rand().Int63()
	}
	p.flA.start(flKey{rank: x, origin: origin}, 0)
	p.flA.flush()
	if p.flA.completed {
		// Single-node network: phase A is trivially complete.
		p.enterPhaseB(c, x)
	}
}

// enterPhaseB makes the node a phase-B candidate with rank space n̂⁴.
func (p *estimateProc) enterPhaseB(c *sim.Context, xbar int64) {
	if p.inB {
		return
	}
	p.inB = true
	xbar = min(xbar, 15) // n̂ = 2^X̄ ≤ 2^15: a 60-bit rank space
	p.flB.start(drawKey(c, rankSpace(1<<xbar)), xbar)
	p.flB.settle(c)
}

func (p *estimateProc) Round(c *sim.Context, inbox []sim.Message) {
	// startB is the largest start signal of the round; joinB the largest X̄
	// on a phase-B record (at least 1 when there is one).
	startB, joinB := int64(0), int64(0)
	for _, in := range inbox {
		switch m := in.Payload.(type) {
		case *flMsg:
			if m.Tag == tagPhaseB {
				joinB = max(joinB, m.Aux, 1)
			}
		case startBMsg:
			startB = max(startB, m.xbar)
		}
	}
	p.flA.handleInbox(inbox)
	// Phase-A completion at the maximum holder triggers the start flood.
	if p.flA.completed && p.flA.won && !p.sawAWin {
		p.sawAWin = true
		c.Broadcast(startBMsg{xbar: p.flA.heard.rank})
		p.enterPhaseB(c, p.flA.heard.rank)
	}
	if startB > 0 && !p.startFwd {
		p.startFwd = true
		c.Broadcast(startBMsg{xbar: startB})
		p.enterPhaseB(c, startB)
	}
	// Join rule: a phase-B rank arriving before the start signal makes the
	// node a candidate first (using the rank's X̄), then processes it.
	if joinB > 0 {
		p.enterPhaseB(c, joinB)
	}
	p.flB.handleInbox(inbox)
	// Both flooders have read the inbox: only now may its boxes go back.
	p.flB.shelf.release(inbox)
	p.flA.flush()
	p.flB.flush()
	if p.inB {
		p.flB.settle(c)
	}
	// Quiet round with nothing queued: every check above ran on flooder
	// state that only a delivery can change, and nothing here counts
	// rounds, so the next quiet round would repeat this one to no effect.
	if len(inbox) == 0 && p.flA.idle() && p.flB.idle() {
		c.IdleUntil(sim.Forever)
	}
}

func init() {
	register(Spec{
		Name:    "leastel-estimate",
		Result:  "Cor 4.5",
		Summary: "size-estimate max-flood then f=n least-el; no knowledge, prob 1, O(D) time, O(m·min(log n,D)) msgs whp",
		Quiet:   true,
		Bound:   Bound{Msgs: termMLogN, Rounds: termD, MessageDriven: true},
		New:     func(o Options) sim.Recycler { return Estimate{depot: o.depot} },
	})
}
