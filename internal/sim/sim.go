// Package sim implements the message-passing network models of the paper
// on one event-driven execution engine: a deterministic pending-event
// queue of message deliveries and timer wake-ups in which only the nodes
// an event touches are stepped (see event.go). It is the only code that
// executes a protocol; the package's tests hold it to a round-by-round
// reference interpreter of the synchronous model (reference_test.go).
//
// Three execution modes mirror the paper's models (the PODC version is
// synchronous; the JACM version frames leader election for asynchronous
// networks too):
//
//   - CONGEST (synchronous): computation proceeds in rounds; each awake
//     node receives the messages its neighbors sent in the previous
//     round, computes locally (with private unbiased coins), and sends at
//     most one message per incident port. Every message is charged its
//     encoded size in bits and must fit the per-message bit budget
//     (Θ(log n) by default).
//   - LOCAL (synchronous): like CONGEST but with unrestricted message
//     size (used by the lower-bound experiments, which hold even here).
//   - ASYNC: the event-driven asynchronous model. Each message incurs a
//     per-message latency drawn from a deterministic DelaySchedule (the
//     schedule adversary), and a node computes only when it wakes up or a
//     delivery arrives: there is no clock to wait on. CONGEST accounting
//     applies.
//
// One rule steps nodes in every mode — a node is stepped at a tick exactly
// when an event of that tick touches it — and the synchronous modes add an
// implicit timer per round for each awake node not declared idle (event.go).
//
// Every mode is deterministic given (graph, protocol, seed): node coins
// are derived from the run seed with splitmix64, inboxes are delivered in
// port order, and asynchronous delays are pure functions of the seed and
// the message coordinates. On large graphs the engine splits the nodes
// into shards stepped on several cores (shard.go), with identical
// observable behaviour at every shard count.
package sim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"ule/internal/graph"
)

// Status is the leader-election output state of a node, per the paper's
// definition (status_u ∈ {⊥, non-elected, elected}).
type Status int

// Election statuses. Undecided is the initial ⊥ state.
const (
	Undecided Status = iota
	Leader
	NonLeader
)

func (s Status) String() string {
	switch s {
	case Leader:
		return "elected"
	case NonLeader:
		return "non-elected"
	default:
		return "undecided"
	}
}

// Mode selects the communication and timing model.
type Mode int

// Execution models. CONGEST and LOCAL are the synchronous round-based
// models of the package comment; ASYNC is the event-driven asynchronous
// model, in which messages incur per-message delays drawn from a
// deterministic DelaySchedule and a node computes only when an event (its
// wake-up or a delivery) arrives. ASYNC uses CONGEST message accounting.
const (
	CONGEST Mode = iota + 1
	LOCAL
	ASYNC
)

func (m Mode) String() string {
	switch m {
	case CONGEST:
		return "congest"
	case LOCAL:
		return "local"
	case ASYNC:
		return "async"
	default:
		return "mode(0)"
	}
}

// Payload is the content of a message. Bits reports the encoded size used
// for CONGEST accounting; implementations should charge Θ(log n) bits per
// ID/rank/counter field.
type Payload interface {
	Bits() int
}

// Message is a payload delivered through a local port.
type Message struct {
	// Port is the receiving node's port through which the message arrived.
	Port int
	// Payload is the message content.
	Payload Payload
}

// Knowledge is the global parameters the nodes are given a priori — an
// algorithm's "Knowledge" column of Table 1. A zero field is not granted.
type Knowledge struct {
	N, D int
}

// NodeInfo is the static information available to a node at creation.
type NodeInfo struct {
	// ID is the node's unique identifier (0 and HasID=false when anonymous).
	ID int64
	// HasID reports whether the network is non-anonymous.
	HasID bool
	// Degree is the number of incident ports.
	Degree int
	// Know holds the a-priori known global parameters.
	Know Knowledge
}

// Process is a per-node state machine. The engine calls Start exactly once,
// in the node's wake-up round (before the Round call of that round), and
// Round whenever an event touches the awake, non-halted node: a delivery
// or — in the synchronous modes — the timer of every round the node has
// not declared idle (Context.IdleUntil).
type Process interface {
	Start(c *Context)
	Round(c *Context, inbox []Message)
}

// Protocol creates the per-node processes of a distributed algorithm.
type Protocol interface {
	// New returns the process run by a node with the given static info.
	New(info NodeInfo) Process
}

// Recycler is a Protocol whose processes outlive the run: a Runner hands
// Renew the process the node ran last on that Runner (nil on a first run;
// another protocol's process when the Runner changed protocols) and runs
// what it returns. Renew must return a process in exactly the state
// New(info) would — no run may be able to tell the two apart — and may
// build it in old's storage when old is one of its own. The engine renews
// only between runs, when nothing the old process sent is in flight; a
// node that rejoins mid-run (fault.go) gets a New process.
type Recycler interface {
	Protocol
	Renew(old Process, info NodeInfo) Process
}

// Context is the per-node handle through which a process observes and acts
// on the network. It is only valid during the Start/Round call that received
// it.
type Context struct {
	eng  *engine
	sh   *engineShard // the shard that steps the node
	node int
	info NodeInfo
	rng  *rand.Rand

	rngReady    bool // rng has been (re)seeded for this run
	spontaneous bool
	steps       int32 // Start and Round calls of the node this run
}

// ID returns the node's unique identifier (0 in anonymous networks).
func (c *Context) ID() int64 { return c.info.ID }

// HasID reports whether the network is non-anonymous.
func (c *Context) HasID() bool { return c.info.HasID }

// Degree returns the number of incident ports.
func (c *Context) Degree() int { return c.info.Degree }

// Know returns the a-priori knowledge configured for this run.
func (c *Context) Know() Knowledge { return c.info.Know }

// Round returns the current round number (1-based). In ASYNC mode, where
// a node has no clock, it is the node's own step count instead: 1 in its
// Start, then one more in each Start and Round call since (a reset-state
// rejoin counts from 1 again, a keep-state one goes on).
func (c *Context) Round() int {
	if c.eng.async {
		return int(c.steps)
	}
	return c.eng.round
}

// Shard returns the index of the engine shard that steps this node in the
// current run, below the run's Config.Shards as EffectiveShards resolves
// it. Every Start and Round call of a node in one run happens on its
// shard, and a shard steps one node at a time, so state a protocol keeps
// per shard index is touched by one goroutine at a time, with the tick
// barrier between any two. It is the host's schedule, not the model's: a
// run reports the same at every shard count, so nothing a node sends or
// decides may depend on it (the flood family picks a free list of its
// wire boxes with it).
func (c *Context) Shard() int { return c.sh.id }

// Forever is the IdleUntil round of a node that only a message can rouse.
const Forever = math.MaxInt

// IdleUntil is a promise, not a request: until the given round (Forever:
// until a message arrives) this node's Round called on an empty inbox
// does nothing — no send, decision, halt or coin, no state change a later
// round could observe. The synchronous modes then drop the node's implicit
// round timers before that round, so waiting costs no host time; a
// delivery steps the node as always, and the hint lapses with every step
// (the last call of a step counts) — a node that is still idle says so
// again. A hint only removes steps that would have done nothing, so no
// transcript depends on it: ASYNC, which has no timers, ignores it, and
// so does the tests' reference interpreter, which steps every awake node
// every round and is what a hinted run is tested against.
func (c *Context) IdleUntil(round int) {
	if c.eng.hints {
		c.eng.idle[c.node] = round
	}
}

// Rand returns the node's private source of unbiased coins. It is
// deterministic given the run seed and the node index, and draws exactly
// what rand.New(rand.NewSource(NodeSeed(seed, node))) would. The generator
// behind it (lazyrng.go) is built on the node's first call and kept by the
// Runner; a later run only reseeds it, and seeding costs nothing until a
// coin is drawn, so reuse is invisible to runs and coin-free nodes pay
// nothing.
func (c *Context) Rand() *rand.Rand {
	if !c.rngReady {
		c.rngReady = true
		if c.rng == nil {
			c.rng = rand.New(new(lazySource))
			c.eng.rngs[c.node] = c.rng // keep for reuse across runs
		}
		c.rng.Seed(NodeSeed(c.eng.cfg.Seed, c.node))
	}
	return c.rng
}

// SpontaneousWake reports whether the node woke by schedule (true) or by
// receiving a message (false). Only meaningful during Start.
func (c *Context) SpontaneousWake() bool { return c.spontaneous }

// Send transmits payload through the given port; it is delivered to the
// neighbor at the start of the next round. Outside LOCAL, a ninth message
// through one port in one round (ErrDoubleSend) or a payload over the
// CONGEST bit budget (ErrBitCap) aborts the run, as does an invalid port:
// each would violate the model (run.go, portSendCap).
func (c *Context) Send(port int, p Payload) {
	c.eng.send(c, port, p)
}

// Broadcast sends payload through every port.
func (c *Context) Broadcast(p Payload) {
	c.eng.sendAll(c, -1, p)
}

// BroadcastExcept sends payload through every port except skip (pass a
// negative skip to send on all ports).
func (c *Context) BroadcastExcept(skip int, p Payload) {
	c.eng.sendAll(c, skip, p)
}

// Decide sets the node's election status. A decision is final: changing
// an elected or non-elected status fails the run with ErrRevoked (a
// reset-state rejoin is a new process, back at ⊥).
func (c *Context) Decide(s Status) {
	c.eng.decide(c.node, s)
}

// Status returns the node's current election status.
func (c *Context) Status() Status { return c.eng.status[c.node] }

// Halt marks the node as finished: it receives no further Round calls and
// discards any messages that arrive later (they are still counted).
func (c *Context) Halt() {
	if !c.eng.halted[c.node] {
		c.eng.halted[c.node] = true
		c.sh.numRunning-- // the stepping shard's own counter
	}
}

// WakeOnMessage is the Config.Wake value for nodes that sleep until the
// first message arrives (the adversarial-wakeup model).
const WakeOnMessage = -1

// Config describes one run of a protocol on a graph.
type Config struct {
	Graph *graph.Graph
	// IDs assigns unique identifiers; nil means an anonymous network.
	IDs []int64
	// Know is the a-priori knowledge handed to every node.
	Know Knowledge
	// Seed drives all node coins; identical seeds reproduce runs exactly.
	Seed int64
	// Model is the execution model: communication/timing mode, asynchronous
	// delay adversary and fault adversary in one value (see ModelSpec for
	// the axes and their constraints, which Runner.RunInto enforces). The
	// zero value is CONGEST, fault-free. Every injected fault is a pure
	// function of Seed, so faulty runs replay byte-identically at any
	// worker count.
	Model ModelSpec
	// MaxRounds bounds the execution (default 1 << 20).
	MaxRounds int
	// Wake gives each node's wake-up round (1-based), or WakeOnMessage.
	// nil means simultaneous wake-up at round 1.
	Wake []int
	// StopWhenQuiet stops the run at the end of the first round with no
	// messages in flight and every node decided. Protocols that wait in
	// silence (e.g. counting D rounds) must leave this false and halt
	// explicitly.
	StopWhenQuiet bool
	// WatchEdges lists edges whose first crossing round is recorded
	// (the "bridge crossing" instrument of Lemma 3.5).
	WatchEdges [][2]int
	// Shards is the number of contiguous node ranges the event engine is
	// partitioned into, each with a private timing wheel, fault heap and
	// scratch state (see shard.go). Results are byte-identical at every
	// count. 0 = the engine decides (one shard per 4096 nodes, at most
	// GOMAXPROCS), 1 = single shard, k > 1 = k ranges of ⌈n/k⌉ nodes (fewer
	// when the last ones would be empty), negative = GOMAXPROCS;
	// EffectiveShards has the rule and its clamps, so any value is safe.
	Shards int
}

// Result summarizes a finished run.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// LastActive is the last round in which any message was sent or any
	// status changed; for protocols that linger silently this is the
	// natural "time" measurement.
	LastActive int
	// Messages is the total number of messages sent.
	Messages int64
	// Bits is the total number of payload bits sent.
	Bits int64
	// Statuses holds each node's final election status.
	Statuses []Status
	// Leaders lists the nodes that ended in status elected.
	Leaders []int
	// Halted reports whether every node halted (clean termination).
	Halted bool
	// HitRoundCap reports whether the run stopped at MaxRounds.
	HitRoundCap bool
	// FirstCrossing is the first round in which a message crossed any
	// watched edge, in either direction (0 = never).
	FirstCrossing int
	// MessagesBeforeCrossing counts messages sent strictly before the
	// first crossing of any watched edge (only tracked with WatchEdges).
	MessagesBeforeCrossing int64
	// Crashed flags the nodes that were down when the run ended (nil for
	// fault-free runs). A node that crashed and recovered is not flagged.
	Crashed []bool
	// Crashes and Recoveries count the applied node-down and node-up
	// fault events (crash-stop crashes, churn leaves / recoveries, churn
	// rejoins). Scheduled events the run ended before never count.
	Crashes    int
	Recoveries int
	// Dropped counts messages lost to faults: link drops at send time
	// plus deliveries to crashed nodes. Dropped messages still count
	// toward Messages and Bits — the sender paid for them.
	Dropped int64
}

// LeaderCount returns the number of elected nodes.
func (r *Result) LeaderCount() int { return len(r.Leaders) }

// UniqueLeader reports whether exactly one node is elected and every other
// node is non-elected — the paper's success condition for leader election.
func (r *Result) UniqueLeader() bool {
	if len(r.Leaders) != 1 {
		return false
	}
	for _, s := range r.Statuses {
		if s == Undecided {
			return false
		}
	}
	return true
}

// UniqueLiveLeader reports the fault-tolerant success condition: exactly
// one node that is still up at the end of the run is elected, and every
// live node has decided. Crashed nodes are exempt — a dead leader or a
// dead undecided node does not invalidate the election among the
// survivors. For a fault-free run (no Crashed vector) it is UniqueLeader.
func (r *Result) UniqueLiveLeader() bool {
	if len(r.Crashed) != len(r.Statuses) {
		return r.UniqueLeader()
	}
	leaders := 0
	for u, s := range r.Statuses {
		if r.Crashed[u] {
			continue
		}
		switch s {
		case Leader:
			leaders++
		case Undecided:
			return false
		}
	}
	return leaders == 1
}

// engine holds the state of a run: the buffers the Runner keeps between
// runs, embedded by value, and the per-run fields around them, which
// Runner.RunInto rebuilds from zero for every run.
type engine struct {
	buffers

	cfg     Config
	round   int
	bitCap  int
	sendCap int
	// watch is the run's watched-edge set: nil when no edge is watched,
	// and every instrument branch is gated on that nil check.
	watch map[[2]int]bool

	// Sharded event-engine state (event.go, shard.go). shardSize is
	// ⌈n/len(shards)⌉, the stride of the contiguous node partition (a
	// node's shard is one division).
	shardSize int
	delay     DelaySchedule
	// linkDelay is delay's per-link split when it offers one (the built-in
	// random and fifo schedules), nil otherwise.
	linkDelay linkDelay
	async     bool
	// hints reports whether IdleUntil is honoured: the synchronous modes of
	// the event engine.
	hints bool
	// slots reports whether a broadcast may be kept as its sender's slot
	// (sendAll): the synchronous modes without link drops. A slot is
	// landed at its tick's barrier (landSlots), and slotSends is the
	// tick's total of slot messages, summed by the coordinator before the
	// drain phase: it picks the landing's route.
	slots     bool
	slotSends int
	// Fault adversary state (fault.go): the parsed schedule plus the
	// global membership vectors; the per-shard event heaps live in the
	// shards. All nil for a fault-free run, and every fault branch in the
	// engine is gated on those nil checks, so the fault-free path
	// executes exactly as it would without the subsystem.
	fsched    *FaultSchedule
	fAlive    []bool // fAlive[u]: node u is currently up
	fRejoined []bool // fRejoined[u]: u Start()s this tick because it rejoined
	// proto rebuilds a node's process on reset-state recovery.
	proto Protocol
	// crossed is the watched-edge crossing cut, folded at tick barriers
	// (coordinator only; see foldTick).
	crossed bool
	maxTick int // round cap; timers past it are never scheduled
	// Quiescence counters summed over the shards at the end of every tick
	// (foldTick): awake live non-halted nodes, those of them that hold a
	// round timer (synchronous modes), ASYNC deliveries in the wheels, and
	// synchronous messages in the rows, due next tick.
	running     int
	active      int
	pendingMsgs int
	arrivals    int

	// shardPool drives the pooled ticks of a multi-shard run on a
	// multi-core host (nil otherwise), with tickFn/drainFn the fixed
	// per-run closures handed to it so the per-tick dispatch allocates
	// nothing.
	shardPool *shardPool
	tickFn    func(int)
	drainFn   func(int)

	res *Result
	err error
}

// Errors produced by model violations inside protocols.
var (
	ErrDoubleSend = errors.New("sim: per-port per-round send cap exceeded")
	ErrBadPort    = errors.New("sim: send on invalid port")
	ErrBitCap     = errors.New("sim: CONGEST message exceeds bit budget")
	ErrConfig     = errors.New("sim: invalid config")
	ErrRevoked    = errors.New("sim: decided status revoked")
)

// send and decide write only per-node slots (outbox row, broadcast slot,
// status, scratch error/changed flags) and the stepping shard's send
// counters and broadcaster list; the engine merges scratch state after
// each round. This keeps node steps race-free when shards step
// concurrently. Bits() is evaluated here, once, and cached alongside the
// payload so the cap check and the delivery accounting never re-dispatch
// through the interface. A send is counted against its port's cap only
// once it is queued, so the counters are exactly the ports of the node's
// outbox row (clearSends) — a broadcast slot is never counted, and is
// expanded into the row before any later send of its tick (expand).
func (e *engine) send(c *Context, port int, p Payload) {
	u := c.node
	if e.nodeErr[u] != nil {
		return
	}
	if e.slots && e.bcast[u].tick == e.round {
		e.expand(c)
	}
	deg := int(e.off[u+1] - e.off[u])
	if port < 0 || port >= deg {
		e.nodeErr[u] = fmt.Errorf("%w: node %d port %d (degree %d)", ErrBadPort, u, port, deg)
		return
	}
	if e.sendCap > 0 && int(c.sh.sendCnt[port]) >= e.sendCap {
		e.nodeErr[u] = fmt.Errorf("%w: node %d port %d round %d cap %d", ErrDoubleSend, u, port, e.round, e.sendCap)
		return
	}
	if p == nil {
		e.nodeErr[u] = fmt.Errorf("%w: nil payload from node %d", ErrConfig, u)
		return
	}
	bits := p.Bits()
	if e.cfg.Model.Mode != LOCAL && bits > e.bitCap {
		e.nodeErr[u] = fmt.Errorf("%w: %d bits > cap %d (node %d round %d payload %T)",
			ErrBitCap, bits, e.bitCap, u, e.round, p)
		return
	}
	c.sh.sendCnt[port]++
	e.out[u] = append(e.out[u], outMsg{port: int32(port), bits: int32(bits), pl: p})
}

// sendAll is send(c, port, p) for every port but skip, in ascending port
// order, with everything that depends only on the payload — the node's
// error, nil, Bits() and the bit cap — tested once instead of once per
// port. The per-port send cap is still counted port by port. Whatever
// fails is handed, with the port it fails at, to send, so the error and
// the row prefix queued before it are exactly the per-port loop's.
//
// As a node's first send of a synchronous tick without link drops, the
// broadcast is kept whole instead, as the node's broadcast slot (keep):
// no port can be at its cap yet, and the landing at the barrier reads
// the slot where the records would have been read (shard.go).
func (e *engine) sendAll(c *Context, skip int, p Payload) {
	u := c.node
	if e.nodeErr[u] != nil {
		return
	}
	if e.slots && e.bcast[u].tick == e.round {
		e.expand(c)
	}
	deg := int(e.off[u+1] - e.off[u])
	first := 0
	if skip == 0 {
		first = 1
	}
	if first >= deg {
		return
	}
	if p == nil {
		e.send(c, first, p)
		return
	}
	bits := p.Bits()
	if e.cfg.Model.Mode != LOCAL && bits > e.bitCap {
		e.send(c, first, p)
		return
	}
	row := e.out[u]
	if e.slots && len(row) == 0 {
		e.keep(c, skip, deg, bits, p)
		return
	}
	cnt := c.sh.sendCnt
	m := outMsg{bits: int32(bits), pl: p}
	for port := first; port < deg; port++ {
		if port == skip {
			continue
		}
		if e.sendCap > 0 && int(cnt[port]) >= e.sendCap {
			e.out[u] = row
			e.send(c, port, p)
			return
		}
		cnt[port]++
		m.port = int32(port)
		row = append(row, m)
	}
	e.out[u] = row
}

// keep makes a validated broadcast of node u, its first send of the
// tick, u's broadcast slot, lists u among its shard's broadcasters and
// adds the messages the slot carries — one a port but skip — to the
// shard's slot sends.
func (e *engine) keep(c *Context, skip, deg, bits int, p Payload) {
	sends := deg
	if skip >= 0 && skip < deg {
		sends--
	} else {
		skip = -1 // no port: and no wider value may wrap into one as an int32
	}
	u := c.node
	e.bcast[u] = bcastSlot{pl: p, bits: int32(bits), skip: int32(skip), tick: e.round}
	c.sh.bcasters = append(c.sh.bcasters, int32(u))
	c.sh.slotSends += sends
}

// expand turns the stepping node's broadcast slot of this tick back
// into the records sendAll's loop would have queued — one a port but
// the skipped one, ascending, each counted against its port's cap — so
// that a later send of the tick finds the outbox row and the counters a
// node without slots would have left. The node stays on its shard's
// broadcaster list; the landing passes it over. The callers test for the
// slot themselves, so that a send without one pays no call.
func (e *engine) expand(c *Context) {
	u := c.node
	s := &e.bcast[u]
	s.tick = 0
	deg := int(e.off[u+1] - e.off[u])
	row, cnt := e.out[u], c.sh.sendCnt
	queued := len(row)
	m := outMsg{bits: s.bits, pl: s.pl}
	for port := range deg {
		if port == int(s.skip) {
			continue
		}
		cnt[port]++
		m.port = int32(port)
		row = append(row, m)
	}
	c.sh.slotSends -= len(row) - queued
	e.out[u] = row
}

// loadSends counts the sends queued in a node's outbox row into the
// shard's send counters, before the node's step.
func (sh *engineShard) loadSends(row []outMsg) {
	for _, m := range row {
		sh.sendCnt[m.port]++
	}
}

// clearSends zeroes the shard's send counters over the ports of a node's
// outbox row, after the node's step; the row holds every send the
// counters count, so they are all zero again.
func (sh *engineShard) clearSends(row []outMsg) {
	for _, m := range row {
		sh.sendCnt[m.port] = 0
	}
}

func (e *engine) decide(u int, s Status) {
	switch old := e.status[u]; {
	case old == s:
	case old == Undecided:
		e.status[u] = s
		e.changed[u] = true
	case e.nodeErr[u] == nil:
		e.nodeErr[u] = fmt.Errorf("%w: node %d %v → %v in round %d", ErrRevoked, u, old, s, e.round)
	}
}

// SplitMix64 is the SplitMix64 mixing function, a stateless 64→64-bit
// hash: the one derivation behind node seeds, delay and fault schedules,
// and the seed-deterministic jitter and chaos draws of the layers above.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NodeSeed derives the deterministic RNG seed of node u for run seed s.
func NodeSeed(s int64, u int) int64 {
	return int64(SplitMix64(uint64(s) ^ SplitMix64(uint64(u)+0x5bd1e995)))
}
