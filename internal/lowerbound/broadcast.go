package lowerbound

import "ule/internal/sim"

// The broadcast problem of Corollary 3.12: a single source must convey a
// message to all (or, in the majority variant, to more than half of) the
// nodes. The flooding protocol here is message-optimal up to constants
// (Θ(m)); the corollary shows that Ω(m) is unavoidable for any algorithm
// with suitably large success probability, which BroadcastLB demonstrates
// on dumbbell graphs.

// flood is the classic flooding broadcast: the source sends a token to all
// neighbors; every node forwards it once. Θ(m) messages, source
// eccentricity + 1 rounds. The source is the one node floodWake wakes.
type flood struct{}

var _ sim.Protocol = flood{}

// New implements sim.Protocol.
func (flood) New(info sim.NodeInfo) sim.Process {
	return &floodProc{}
}

type token struct{}

func (token) Bits() int { return 1 }

// msgToken is the flood payload, sent as a package-level singleton.
var msgToken sim.Payload = token{}

type floodProc struct{ got bool }

// Protocol convention: the source is the unique node with wake round 1;
// all others use sim.WakeOnMessage (see floodWake).
func (p *floodProc) Start(c *sim.Context) {
	if c.SpontaneousWake() {
		p.got = true
		c.Decide(sim.Leader) // "informed" marker; Leader doubles as got-it
		c.Broadcast(msgToken)
		c.Halt()
	}
}

func (p *floodProc) Round(c *sim.Context, inbox []sim.Message) {
	if !p.got && len(inbox) > 0 {
		p.got = true
		c.Decide(sim.Leader)
		c.Broadcast(msgToken)
	}
	c.Halt()
}

// floodWake returns the wake schedule that realizes the broadcast
// convention on an n-node graph: only the source wakes spontaneously.
func floodWake(n, source int) []int {
	wake := make([]int, n)
	for i := range wake {
		wake[i] = sim.WakeOnMessage
	}
	wake[source] = 1
	return wake
}

// informed counts the nodes the broadcast reached (marked Leader by the
// convention above).
func informed(res *sim.Result) int {
	count := 0
	for _, s := range res.Statuses {
		if s == sim.Leader {
			count++
		}
	}
	return count
}

// reachedMajority reports whether the broadcast informed more than half of
// the nodes (the majority-broadcast success condition of Corollary 3.12).
func reachedMajority(res *sim.Result) bool {
	return informed(res)*2 > len(res.Statuses)
}
