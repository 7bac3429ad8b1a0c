package core

import "ule/internal/sim"

// Kingdom is the Theorem 4.10 "double-win growing kingdoms" deterministic
// election (a corrected variant of Abu-Amara–Kanevsky [1]): O(D·log n)
// time and O(m·log n) messages, with no knowledge of n, D or m.
//
// Every node starts as a candidate. A candidate in phase p grows a BFS
// kingdom of radius 2^(p−1) with an ELECT wave; the wave is an
// echo-terminated flood (the async analogue of the paper's 4-stage
// election), so the candidate learns the largest (phase, ID) claim its
// kingdom touched. A candidate that heard only its own claim runs the
// second win: a CONFIRM/PROBE/VICTOR sweep over its kingdom that collects
// the claims of every neighbor of every kingdom member (the paper's
// "neighbors of neighbors"). Only a candidate that wins both sweeps
// proceeds to phase p+1; claims are totally ordered by (phase, ID), and
// higher claims overrun lower ones mid-wave. The candidate holding the
// historically largest claim can never be defeated, so exactly one
// candidate survives; it detects that its kingdom covers the graph (every
// member's neighbors are members) and elects itself, flooding a final done
// signal so everyone halts.
//
// With KnownD set, phase p's waves use radius D·2^(p−1), so the first
// already spans the graph (the paper's simplified variant under knowledge
// of D).
type Kingdom struct {
	// KnownD grows kingdoms of radius D·2^(p−1) from phase 1.
	KnownD bool
}

// New implements sim.Protocol.
func (k Kingdom) New(info sim.NodeInfo) sim.Process { return k.Renew(nil, info) }

// Renew implements sim.Recycler: the initial state of a kingdom process,
// written over old's wave table, children slices and slab when old is a
// kingdom process.
func (k Kingdom) Renew(old sim.Process, _ sim.NodeInfo) sim.Process {
	p := reuse[kingdomProc](old)
	*p = kingdomProc{knownD: k.KnownD, states: p.states[:0], slab: p.slab.rewound(), elects: p.elects[:0]}
	return p
}

// kkey is a kingdom claim: candidate id at a phase, totally ordered.
type kkey struct {
	phase int32
	id    int64
}

func (a kkey) less(b kkey) bool {
	if a.phase != b.phase {
		return a.phase < b.phase
	}
	return a.id < b.id
}

func (a kkey) max(b kkey) kkey {
	if a.less(b) {
		return b
	}
	return a
}

// kKind tags the kingdom wire record. Every ELECT gets exactly one kReply;
// every kProbe gets exactly one kProbeRe; kConfirm triggers exactly one
// kVictor per child — so both sweeps are deadlock-free echo floods.
type kKind uint8

const (
	kElect kKind = iota
	kReply
	kConfirm
	kProbe
	kProbeRe
	kVictor
	kDone
)

// kMsg is the one wire record of the protocol, sent as *kMsg so a Send
// boxes nothing. Fields a kind does not carry are zero and cost no bits.
//
// Ownership: the sender draws the record from its own slab (slab.go has the
// rules) and one record may ride every port of a broadcast. The record is
// pointer-free, so the slab chunks are never scanned.
type kMsg struct {
	kind    kKind
	join    bool  // kReply: the sender joined the wave as a child
	covered bool  // kVictor: every neighbor of the subtree is a member
	ttl     int32 // kElect: hops the wave may still travel
	key     kkey  // the wave the message belongs to
	max     kkey  // kReply, kProbeRe, kVictor: largest claim known to the sender's side
}

func kkeyBits(k kkey) int { return sim.BitsFor(int64(k.phase)) + sim.BitsFor(k.id) }

// Bits implements sim.Payload.
func (m *kMsg) Bits() int {
	switch m.kind {
	case kElect:
		return 3 + kkeyBits(m.key) + sim.BitsFor(int64(m.ttl))
	case kReply, kVictor:
		return 4 + kkeyBits(m.key) + kkeyBits(m.max)
	case kConfirm, kProbe:
		return 3 + kkeyBits(m.key)
	case kProbeRe:
		return 3 + kkeyBits(m.key) + kkeyBits(m.max)
	default: // kDone
		return 1
	}
}

// msgKDone is the field-less termination payload, shared by every sender.
var msgKDone = &kMsg{kind: kDone}

// kState is the per-wave membership state at a node.
type kState struct {
	key      kkey
	parent   int // port toward the wave's root; -1 at the root
	children []int
	pending  int  // outstanding ELECT replies
	replied  bool // join reply sent upward
	agg      kkey // stage-1 aggregate

	stage2   bool
	pending2 int // outstanding probe replies + child victors
	agg2     kkey
	covered2 bool
}

type kingdomProc struct {
	knownD bool

	me   int64
	zMax kkey // largest claim ever seen (monotone)
	// states holds the waves this node joined or launched, in that order.
	// A wave enters only by overtaking zMax, so the keys ascend strictly
	// and the newest entries are the live ones.
	states    []kState
	candidate bool
	phase     int32
	doneSent  bool
	halting   bool

	// slab holds the wire records this node sends (see kMsg).
	slab slab[kMsg]
	// elects is Round's reusable scratch: this round's ELECTs, strongest
	// claim first.
	elects []kElectIn
}

// kElectIn is one received ELECT with its arrival port.
type kElectIn struct {
	port int
	m    *kMsg
}

// enter appends the state of wave key, reached through parent and waiting
// for pending replies, on top of whatever entry an earlier run left there
// (its children slice is kept for its capacity). The pointer is good until
// the next enter.
func (p *kingdomProc) enter(key kkey, parent, pending int) *kState {
	p.states = extend(p.states)
	st := &p.states[len(p.states)-1]
	*st = kState{key: key, parent: parent, pending: pending, agg: key, children: st.children[:0]}
	return st
}

// wave returns the state of wave key, nil when this node never entered it;
// newest first: traffic mostly belongs to the latest waves.
func (p *kingdomProc) wave(key kkey) *kState {
	for i := len(p.states) - 1; i >= 0; i-- {
		if p.states[i].key == key {
			return &p.states[i]
		}
	}
	return nil
}

// radius is a phase-p wave's radius, base·2^(p−1) capped at 2^30: the
// base is D under KnownD and 1 otherwise. Doubling matters with known D
// too: under FIFO delays a fixed radius-D wave repeats its first-arrival
// tree every phase, and an uncovered kingdom would never grow.
func (p *kingdomProc) radius(phase int32, c *sim.Context) int32 {
	base := int64(1)
	if p.knownD {
		base = max(int64(c.Know().D), 1)
	}
	if phase > 31 {
		return 1 << 30
	}
	return int32(min(base<<(phase-1), 1<<30))
}

func (p *kingdomProc) Start(c *sim.Context) {
	p.me = c.ID()
	if !c.HasID() {
		p.me = c.Rand().Int63()
	}
	p.candidate = true
	p.phase = 1
	p.launchWave(c)
}

// launchWave starts this candidate's phase-p ELECT wave.
func (p *kingdomProc) launchWave(c *sim.Context) {
	key := kkey{phase: p.phase, id: p.me}
	p.zMax = p.zMax.max(key)
	if p.enter(key, -1, c.Degree()).pending == 0 {
		// Single-node network: both wins are vacuous.
		p.crown(c)
		return
	}
	c.Broadcast(p.slab.box(kMsg{kind: kElect, key: key, ttl: p.radius(p.phase, c)}))
}

// Round is message-driven: every state change of the protocol sits in a
// message handler, so on an empty inbox the node tells the engine that only
// a delivery can rouse it.
func (p *kingdomProc) Round(c *sim.Context, inbox []sim.Message) {
	if p.halting {
		return
	}
	if len(inbox) == 0 {
		c.IdleUntil(sim.Forever)
		return
	}
	// Process ELECTs first, in descending claim order (arrival order among
	// equal claims), so that the strongest wave of the round claims the
	// node first. Payloads that are not kingdom messages are ignored.
	if p.elects == nil {
		p.elects = make([]kElectIn, 0, c.Degree())
	}
	elects := p.elects[:0]
	for _, in := range inbox {
		m, ok := in.Payload.(*kMsg)
		if !ok || m.kind != kElect {
			continue
		}
		i := len(elects)
		elects = append(elects, kElectIn{})
		for ; i > 0 && elects[i-1].m.key.less(m.key); i-- {
			elects[i] = elects[i-1]
		}
		elects[i] = kElectIn{port: in.Port, m: m}
	}
	p.elects = elects
	for _, e := range elects {
		p.handleElect(c, e.port, e.m)
		if p.halting {
			return
		}
	}
	for _, in := range inbox {
		m, ok := in.Payload.(*kMsg)
		if !ok {
			continue
		}
		switch m.kind {
		case kReply:
			p.handleReply(c, in.Port, m)
		case kConfirm:
			p.handleConfirm(c, m.key)
		case kProbe:
			c.Send(in.Port, p.slab.box(kMsg{kind: kProbeRe, key: m.key, max: p.zMax}))
		case kProbeRe:
			p.handleVictorPart(c, m.key, m.max, m.max == m.key)
		case kVictor:
			p.handleVictorPart(c, m.key, m.max, m.covered)
		case kDone:
			p.finish(c)
		}
		if p.halting {
			return
		}
	}
}

func (p *kingdomProc) handleElect(c *sim.Context, port int, m *kMsg) {
	if !p.zMax.less(m.key) {
		// Known or weaker claim: immediate echo carrying the stronger one.
		c.Send(port, p.slab.box(kMsg{kind: kReply, key: m.key, max: p.zMax}))
		return
	}
	p.zMax = m.key
	p.noteDefeat(c)
	st := p.enter(m.key, port, 0)
	if m.ttl > 1 && c.Degree() > 1 {
		st.pending = c.Degree() - 1
		c.BroadcastExcept(port, p.slab.box(kMsg{kind: kElect, key: m.key, ttl: m.ttl - 1}))
		return
	}
	// Leaf of the wave: join immediately.
	st.replied = true
	c.Send(port, p.slab.box(kMsg{kind: kReply, key: m.key, join: true, max: p.zMax}))
}

func (p *kingdomProc) handleReply(c *sim.Context, port int, m *kMsg) {
	st := p.wave(m.key)
	if st == nil || st.pending == 0 {
		return // echo for an abandoned wave
	}
	st.agg = st.agg.max(m.max)
	if m.join {
		st.children = append(st.children, port)
	}
	st.pending--
	if st.pending > 0 {
		return
	}
	if st.parent >= 0 {
		st.replied = true
		c.Send(st.parent, p.slab.box(kMsg{kind: kReply, key: m.key, join: true, max: st.agg.max(p.zMax)}))
		return
	}
	// Root: first win decided.
	p.waveDone(c, m.key, st)
}

// waveDone is the stage-1 verdict at the wave's root.
func (p *kingdomProc) waveDone(c *sim.Context, key kkey, st *kState) {
	if !p.candidate || key.id != p.me || key.phase != p.phase {
		return // stale wave of an abandoned candidacy
	}
	final := st.agg.max(p.zMax)
	if final != key {
		p.defeat(c)
		return
	}
	// Second win: sweep the kingdom's neighborhood.
	p.startStage2(c, key, st)
}

func (p *kingdomProc) startStage2(c *sim.Context, key kkey, st *kState) {
	st.stage2 = true
	st.agg2 = key
	st.covered2 = true
	st.pending2 = len(st.children) + c.Degree()
	if len(st.children) > 0 {
		confirm := p.slab.box(kMsg{kind: kConfirm, key: key})
		for _, ch := range st.children {
			c.Send(ch, confirm)
		}
	}
	c.Broadcast(p.slab.box(kMsg{kind: kProbe, key: key}))
	if st.pending2 == 0 {
		p.stage2Done(c, key, st)
	}
}

func (p *kingdomProc) handleConfirm(c *sim.Context, key kkey) {
	st := p.wave(key)
	if st == nil || st.stage2 || !st.replied {
		return // not a member (or duplicate confirm)
	}
	p.startStage2(c, key, st)
}

// handleVictorPart folds one probe reply or child victor into the stage-2
// aggregate of the wave identified by key.
func (p *kingdomProc) handleVictorPart(c *sim.Context, key, max kkey, covered bool) {
	st := p.wave(key)
	if st == nil || !st.stage2 || st.pending2 == 0 {
		return
	}
	st.agg2 = st.agg2.max(max)
	if !covered {
		st.covered2 = false
	}
	st.pending2--
	if st.pending2 > 0 {
		return
	}
	p.stage2Done(c, key, st)
}

func (p *kingdomProc) stage2Done(c *sim.Context, key kkey, st *kState) {
	if st.parent >= 0 {
		c.Send(st.parent, p.slab.box(kMsg{kind: kVictor, key: key, max: st.agg2.max(p.zMax), covered: st.covered2}))
		return
	}
	if !p.candidate || key.id != p.me || key.phase != p.phase {
		return
	}
	final := st.agg2.max(p.zMax)
	switch {
	case final != key:
		p.defeat(c)
	case st.covered2:
		// Both wins and the kingdom spans the graph: crowned.
		p.crown(c)
	default:
		p.phase++
		p.launchWave(c) // enters a wave: st, and the caller's, is stale from here
	}
}

// noteDefeat marks this node's own candidacy as beaten when a foreign claim
// overruns it (the foreign claim is already folded into zMax).
func (p *kingdomProc) noteDefeat(c *sim.Context) {
	if p.candidate && p.zMax.id != p.me {
		own := kkey{phase: p.phase, id: p.me}
		if own.less(p.zMax) {
			p.defeat(c)
		}
	}
}

func (p *kingdomProc) defeat(c *sim.Context) {
	p.candidate = false
	if c.Status() == sim.Undecided {
		c.Decide(sim.NonLeader)
	}
}

func (p *kingdomProc) crown(c *sim.Context) {
	c.Decide(sim.Leader)
	p.finish(c)
}

// finish floods the done signal and halts.
func (p *kingdomProc) finish(c *sim.Context) {
	if c.Status() == sim.Undecided {
		c.Decide(sim.NonLeader)
	}
	if !p.doneSent {
		p.doneSent = true
		c.Broadcast(msgKDone)
	}
	p.halting = true
	c.Halt()
}

func init() {
	register(Spec{
		Name:          "kingdom",
		Result:        "Thm 4.10",
		Summary:       "double-win growing kingdoms, radius 2^(p-1); deterministic, no knowledge, O(D log n) time, O(m log n) msgs",
		Deterministic: true,
		NeedsIDs:      true,
		// Winner stays AnyID: claims order by (phase, ID), and under delays
		// or a staggered start another node can reach a higher phase first.
		Bound: Bound{Msgs: termMLogN, Rounds: termDLogN, MessageDriven: true, AnyStart: true},
		New:   func(o Options) sim.Recycler { return Kingdom{} },
	})
	register(Spec{
		Name:          "kingdom-d",
		Result:        "§4.3 (known D)",
		Summary:       "growing kingdoms with radius-D phases (knowledge of D); deterministic, O(D log n) time, O(m log n) msgs",
		Deterministic: true,
		NeedsD:        true,
		NeedsIDs:      true,
		Bound:         Bound{Msgs: termMLogN, Rounds: termDLogN, MessageDriven: true, Winner: MaxID, AnyStart: true},
		New:           func(o Options) sim.Recycler { return Kingdom{KnownD: true} },
	})
}
