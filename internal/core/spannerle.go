package core

import (
	"ule/internal/sim"
	"ule/internal/spanner"
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

var _ sim.Recycler = SpannerLE{}

// Name implements sim.Protocol.
func (s SpannerLE) Name() string { return "spanner-le" }

// New implements sim.Protocol.
func (s SpannerLE) New(info sim.NodeInfo) sim.Process { return s.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a spanner-election
// process, keeping the flooder storage of old when old is one.
func (s SpannerLE) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[spannerLEProc](old)
	p.fl.recycle()
	*p = spannerLEProc{k: s.K, fl: p.fl}
	return p
}

type spannerLEProc struct {
	k        int
	machine  *spanner.Machine
	startRd  int
	electing bool
	fl       flooder
}

func (p *spannerLEProc) Start(c *sim.Context) {
	identity := c.ID()
	if !c.HasID() {
		identity = c.Rand().Int63()
	}
	p.machine = spanner.New(identity, c.Know().N, p.k)
	p.startRd = c.Round()
}

func (p *spannerLEProc) Round(c *sim.Context, inbox []sim.Message) {
	rel := c.Round() - p.startRd
	if !p.electing {
		// No idle hint here: the Baswana–Sen schedule counts rounds, so a
		// Step on an empty inbox still advances the construction.
		done := p.machine.Step(c, rel, inbox)
		if done {
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
	ports := p.machine.Ports()
	if len(ports) == 0 && c.Degree() > 0 {
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

func init() {
	register(Spec{
		Name:    "spanner-le",
		Result:  "Cor 4.2",
		Summary: "Baswana–Sen spanner then least-el on it; O(D) time, O(m) msgs when m>n^(1+ε), whp",
		NeedsN:  true,
		Quiet:   true,
		New:     func(o Options) sim.Recycler { return SpannerLE{K: o.spannerK()} },
	})
}
