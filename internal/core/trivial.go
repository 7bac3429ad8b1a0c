package core

import "ule/internal/sim"

// Trivial is the zero-message algorithm of the introduction: each node
// elects itself with probability 1/n. It succeeds (exactly one leader) with
// probability n·(1/n)·(1−1/n)^(n−1) ≈ 1/e, demonstrating why the Ω(m)/Ω(D)
// lower bounds require a suitably large constant success probability.
type Trivial struct{}

// New implements sim.Protocol.
func (t Trivial) New(info sim.NodeInfo) sim.Process { return t.Renew(nil, info) }

// Renew implements sim.Recycler: a trivial process has no state to reset.
func (Trivial) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	return reuse[trivialProc](old)
}

type trivialProc struct{}

func (p *trivialProc) Start(c *sim.Context) {
	if c.Rand().Float64() < 1/float64(c.Know().N) {
		c.Decide(sim.Leader)
	} else {
		c.Decide(sim.NonLeader)
	}
	c.Halt()
}

func (p *trivialProc) Round(c *sim.Context, inbox []sim.Message) {}

func init() {
	register(Spec{
		Name:    "trivial",
		Result:  "§1 example",
		Summary: "self-elect w.p. 1/n; zero messages, one round, succeeds w.p. ≈ 1/e",
		NeedsN:  true,
		Bound:   Bound{Msgs: Term{"0", func(n, m, d int) float64 { return 0 }}, Rounds: Term{"1", func(n, m, d int) float64 { return 1 }}, Success: OverE, MessageDriven: true},
		New:     func(o Options) sim.Recycler { return Trivial{} },
	})
}
