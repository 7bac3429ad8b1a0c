package core

import (
	"math"

	"ule/internal/sim"
)

// DFS is the Theorem 4.1 algorithm: the deterministic, message-optimal
// (O(m)) election that demonstrates the Ω(m) lower bound is tight. It
// generalizes Frederickson–Lynch [8] from rings to arbitrary graphs:
//
//   - A wake-up phase floods a wake signal (≤ 2m messages, ≤ D rounds).
//   - Every node launches an annexing agent that performs a depth-first
//     traversal carrying the node's ID. An agent whose ID is i takes one
//     DFS step every 2^i rounds, so lower-ID agents outrun higher ones.
//   - Agents die on contact with evidence of a smaller ID: arriving at a
//     node a smaller agent visited, or at a node where a smaller agent
//     waits. The agent with the globally smallest ID completes its DFS
//     (≤ 4m steps) and its origin elects itself; a final done-flood
//     (≤ 2m messages) lets everyone halt.
//
// The message total is O(m): the k-th smallest agent moves at most 2^-(k-1)
// times as often as the winner before dying, so the per-agent step counts
// form a geometric series. The time is unbounded in general — it grows as
// 2^(smallest ID)·m — which is exactly the trade the theorem makes.
//
// BudgetCap caps the step period at 2^BudgetCap rounds so that adversarial
// (large) IDs remain simulable; capped agents move so rarely that the
// message bound is unaffected.
type DFS struct {
	// BudgetCap caps the per-step period exponent (Options.DFSBudgetCap).
	BudgetCap int
}

// New implements sim.Protocol.
func (d DFS) New(info sim.NodeInfo) sim.Process { return d.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a DFS process, in
// old's slab when old is a DFS process.
func (d DFS) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[dfsProc](old)
	*p = dfsProc{capExp: d.BudgetCap, smallest: math.MaxInt64, slab: p.slab.rewound()}
	return p
}

// Message kinds of the DFS election. An agent's token is sent as *agentMsg
// from the sender's slab, the way kMsg is.
type (
	wakeMsg  struct{}
	agentMsg struct {
		id   int64
		back bool // true: token returns to the sender's DFS state
	}
	doneMsg struct{}
)

func (wakeMsg) Bits() int     { return 1 }
func (m *agentMsg) Bits() int { return 1 + sim.BitsFor(m.id) }
func (doneMsg) Bits() int     { return 1 }

// Field-less payload singletons: sends never re-box a fresh value.
var (
	msgWake sim.Payload = wakeMsg{}
	msgDone sim.Payload = doneMsg{}
)

// dfsAgent is an agent's DFS bookkeeping at a node it visited.
type dfsAgent struct {
	visited    bool
	parentPort int
	nextPort   int
}

// dfsPend is the single waiting token at this node (only the locally
// smallest agent may wait; larger waiting agents are destroyed).
type dfsPend struct {
	waiting  bool // a token waits
	id       int64
	bounce   bool // true: send back through bouncePort without advancing
	bPort    int
	dueRound int
}

type dfsProc struct {
	capExp   int
	started  bool
	me       int64
	smallest int64
	// agent is the bookkeeping of agent smallest, the only one that can
	// still act here: a larger agent dies on arrival, and a smaller one
	// arrives at a node it never visited.
	agent    dfsAgent
	pend     dfsPend
	doneSent bool
	// slab holds the tokens this node sends (see agentMsg).
	slab slab[agentMsg]
}

// period returns the step period 2^min(id, capExp) of agent id.
func (p *dfsProc) period(id int64) int {
	e := id
	if e > int64(p.capExp) {
		e = int64(p.capExp)
	}
	if e < 1 {
		e = 1
	}
	return 1 << uint(e)
}

// due returns the first allowed step round strictly after now.
func (p *dfsProc) due(id int64, now int) int {
	per := p.period(id)
	return (now/per + 1) * per
}

func (p *dfsProc) Start(c *sim.Context) {
	if c.SpontaneousWake() {
		p.wake(c)
	}
}

// wake runs once: forwards the wake flood and launches this node's agent.
func (p *dfsProc) wake(c *sim.Context) {
	p.started = true
	p.me = c.ID()
	c.Broadcast(msgWake)
	if p.me < p.smallest {
		p.smallest = p.me
	}
	p.agent = dfsAgent{visited: true, parentPort: -1}
	p.schedule(c, dfsPend{id: p.me})
}

// schedule installs a pending token action unless a smaller token already
// waits here (in which case the larger one is destroyed, per the paper).
func (p *dfsProc) schedule(c *sim.Context, d dfsPend) {
	if p.pend.waiting && p.pend.id < d.id {
		return // new arrival destroyed by smaller waiting agent
	}
	d.waiting, d.dueRound = true, p.due(d.id, c.Round())
	p.pend = d // destroys any larger waiting agent
}

func (p *dfsProc) Round(c *sim.Context, inbox []sim.Message) {
	if !p.started && len(inbox) > 0 {
		p.wake(c)
	}
	for _, in := range inbox {
		switch m := in.Payload.(type) {
		case wakeMsg:
			// Wake floods are forwarded exactly once, by wake() above.
		case doneMsg:
			p.finish(c)
			return
		case *agentMsg:
			p.handleAgent(c, in.Port, *m)
		}
	}
	if p.pend.waiting && c.Round() >= p.pend.dueRound {
		d := p.pend
		p.pend = dfsPend{}
		p.step(c, d)
	}
	// The 2^ID wait is the algorithm: nothing above runs on an empty inbox
	// until the waiting token (if any) falls due.
	if p.pend.waiting {
		c.IdleUntil(p.pend.dueRound)
	} else {
		c.IdleUntil(sim.Forever)
	}
}

func (p *dfsProc) handleAgent(c *sim.Context, port int, m agentMsg) {
	if m.id > p.smallest {
		return // destroyed: a smaller agent was here (or is waiting)
	}
	if m.id < p.smallest {
		p.smallest = m.id
		p.agent = dfsAgent{} // a node this agent never visited
		if p.pend.waiting && p.pend.id > m.id {
			p.pend = dfsPend{} // destroy larger waiting agent
		}
	}
	if m.id < p.me && c.Status() == sim.Undecided {
		// Evidence of a smaller candidate: this node cannot win.
		c.Decide(sim.NonLeader)
	}
	st := &p.agent
	if m.back {
		if !st.visited {
			return // stale return for a destroyed traversal
		}
		// Token returns: continue the DFS at this node.
		p.schedule(c, dfsPend{id: m.id})
		return
	}
	if st.visited {
		// Already annexed by this agent: bounce the token straight back.
		p.schedule(c, dfsPend{id: m.id, bounce: true, bPort: port})
		return
	}
	st.visited = true
	st.parentPort = port
	st.nextPort = 0
	p.schedule(c, dfsPend{id: m.id})
}

// step executes one DFS step of the waiting token.
func (p *dfsProc) step(c *sim.Context, d dfsPend) {
	if d.bounce {
		c.Send(d.bPort, p.slab.box(agentMsg{id: d.id, back: true}))
		return
	}
	st := &p.agent
	for st.nextPort < c.Degree() && st.nextPort == st.parentPort {
		st.nextPort++
	}
	if st.nextPort < c.Degree() {
		c.Send(st.nextPort, p.slab.box(agentMsg{id: d.id}))
		st.nextPort++
		return
	}
	if st.parentPort >= 0 {
		c.Send(st.parentPort, p.slab.box(agentMsg{id: d.id, back: true}))
		return
	}
	// The agent explored every edge and returned home: this node leads.
	c.Decide(sim.Leader)
	p.doneSent = true
	c.Broadcast(msgDone)
	c.Halt()
}

// finish handles the done flood: decide, forward once, halt.
func (p *dfsProc) finish(c *sim.Context) {
	if c.Status() == sim.Undecided {
		c.Decide(sim.NonLeader)
	}
	if !p.doneSent {
		p.doneSent = true
		c.Broadcast(msgDone)
	}
	c.Halt()
}

func init() {
	register(Spec{
		Name:          "dfs",
		Result:        "Thm 4.1",
		Summary:       "DFS annexing agents, step period 2^ID; O(m) msgs, unbounded (exponential-in-minID) time",
		Deterministic: true,
		NeedsIDs:      true,
		Bound:         Bound{Msgs: termM, Rounds: Term{Label: "m·2^minID"}, Winner: MinID, AnyStart: true},
		New:           func(o Options) sim.Recycler { return DFS{BudgetCap: o.dfsBudgetCap()} },
	})
}
