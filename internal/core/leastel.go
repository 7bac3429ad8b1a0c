package core

import (
	"math"

	"ule/internal/sim"
)

// FKind selects the candidate budget f(n) of the Theorem 4.4 algorithm
// family. The expected number of candidates is f(n); Lemma 4.3 bounds the
// expected least-element list size by O(min(log f(n), D)), which drives the
// message complexity O(m·min(log f(n), D)).
type FKind int

// Candidate budgets (Theorem 4.4 and its corollaries).
const (
	// FAll sets f(n)=n: every node is a candidate (the original [11]
	// algorithm; succeeds with probability 1 given unique tiebreaks).
	FAll FKind = iota + 1
	// FLog sets f(n)=Θ(log n): Theorem 4.4.(A), success whp, messages
	// O(m·min(log log n, D)).
	FLog
	// FConst sets f(n)=4·ln(1/ε): Theorem 4.4.(B), success ≥ 1−ε,
	// messages O(m).
	FConst
)

// fValue returns f(n) for budget kind k.
func fValue(k FKind, n int, o Options) float64 {
	var f float64
	switch k {
	case FLog:
		f = math.Log(float64(n) + 1)
	case FConst:
		f = 4 * math.Log(1/o.epsilon())
	default:
		f = float64(n)
	}
	f *= o.fScale()
	if f < 1 {
		f = 1
	}
	if f > float64(n) {
		f = float64(n)
	}
	return f
}

// rankSpace returns the rank range [1, n^4] of Section 4.2: the ID
// space's size, saturated at math.MaxInt64 (sim.IDSpace; a wrapped
// product would leave the Lemma 4.3 list bound to the ID tie-breaks), and
// at least 4.
func rankSpace(n int) int64 {
	return max(sim.IDSpace(n), 4)
}

// drawKey draws a candidate's (rank, origin) pair. The origin is the unique
// node ID when available, otherwise a random 62-bit token (the anonymous
// variant; token collisions are the Monte-Carlo failure mode).
func drawKey(c *sim.Context, space int64) flKey {
	k := flKey{rank: 1 + c.Rand().Int63n(space)}
	if c.HasID() {
		k.origin = c.ID()
	} else {
		k.origin = c.Rand().Int63()
	}
	return k
}

// LeastEl is the Theorem 4.4 election family: candidates are sampled with
// probability f(n)/n, draw random ranks, and flood them with least-element
// semantics and echo-based termination; the candidate whose own rank is the
// global minimum elects itself.
type LeastEl struct {
	// F selects the candidate budget.
	F FKind
	// Opt carries shared tuning parameters.
	Opt Options
}

// New implements sim.Protocol.
func (l LeastEl) New(info sim.NodeInfo) sim.Process { return l.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a least-element
// process, keeping the flooder storage of old when old is one.
func (l LeastEl) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[leastelProc](old)
	p.fl.recycle()
	*p = leastelProc{kind: l.F, opt: l.Opt, fl: p.fl}
	return p
}

type leastelProc struct {
	kind FKind
	opt  Options
	fl   flooder
}

func (p *leastelProc) Start(c *sim.Context) {
	n := c.Know().N // Theorem 4.4 assumes n is known
	initFlooder(&p.fl, c.Degree(), nil, true, 0, c, p.opt.depot)
	if c.Rand().Float64() >= fValue(p.kind, n, p.opt)/float64(n) {
		// Non-candidates know immediately that they are not the leader
		// (implicit election only requires the leader to know).
		c.Decide(sim.NonLeader)
		return
	}
	p.fl.start(drawKey(c, rankSpace(n)), 0)
	p.fl.flush()
	p.fl.settle(c) // degree-0 corner: a single-node network completes here
}

func (p *leastelProc) Round(c *sim.Context, inbox []sim.Message) {
	// Quiet round: nothing arrived and nothing is queued, so no flooder
	// state can change and every decision check would repeat last round's.
	if len(inbox) == 0 && p.fl.idle() {
		c.IdleUntil(sim.Forever)
		return
	}
	p.fl.round(inbox)
	p.fl.settle(c)
}

func init() {
	register(Spec{
		Name:    "leastel",
		Result:  "Cor 4.5 [11]",
		Summary: "least-element-list election, every node a candidate (f=n); O(D) time, O(m·min(log n,D)) msgs",
		NeedsN:  true,
		Quiet:   true,
		Bound:   Bound{Msgs: termMLogN, Rounds: termD, MessageDriven: true, AnyStart: true},
		New:     func(o Options) sim.Recycler { return LeastEl{F: FAll, Opt: o} },
	})
	register(Spec{
		Name:    "leastel-loglog",
		Result:  "Thm 4.4.(A)",
		Summary: "f(n)=Θ(log n) candidates; O(D) time, O(m·min(log log n,D)) msgs, success whp",
		NeedsN:  true,
		Quiet:   true,
		Bound:   Bound{Msgs: Term{"m·loglog n", func(n, m, d int) float64 { return float64(m) * log2(int(log2(n))) }}, Rounds: termD, Success: WHP, MessageDriven: true},
		New:     func(o Options) sim.Recycler { return LeastEl{F: FLog, Opt: o} },
	})
	register(Spec{
		Name:    "leastel-const",
		Result:  "Thm 4.4.(B)",
		Summary: "f(n)=4·ln(1/ε) candidates; O(D) time, O(m) msgs, success ≥ 1−ε",
		NeedsN:  true,
		Quiet:   true,
		Bound:   Bound{Msgs: termM, Rounds: termD, Success: OneMinusE, MessageDriven: true},
		New:     func(o Options) sim.Recycler { return LeastEl{F: FConst, Opt: o} },
	})
}
