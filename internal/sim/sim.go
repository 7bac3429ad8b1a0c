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
//     schedule adversary), and a node computes only when a delivery or a
//     timer (Context.RequestWake) arrives. CONGEST accounting applies.
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
// deterministic DelaySchedule and a node computes only when an event (a
// delivery or a timer) arrives. ASYNC uses CONGEST message accounting.
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
// Round whenever an event touches the awake, non-halted node: a delivery,
// a RequestWake timer, or — in the synchronous modes — the implicit timer
// of every round the node has not declared idle (Context.IdleUntil).
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
	node int
	info NodeInfo
	rng  *rand.Rand

	rngReady    bool // rng has been (re)seeded for this run
	spontaneous bool
}

// ID returns the node's unique identifier (0 in anonymous networks).
func (c *Context) ID() int64 { return c.info.ID }

// HasID reports whether the network is non-anonymous.
func (c *Context) HasID() bool { return c.info.HasID }

// Degree returns the number of incident ports.
func (c *Context) Degree() int { return c.info.Degree }

// Know returns the a-priori knowledge configured for this run.
func (c *Context) Know() Knowledge { return c.info.Know }

// Round returns the current round number (1-based). In ASYNC mode it is
// the current virtual time tick.
func (c *Context) Round() int { return c.eng.round }

// Shard returns the index of the engine shard that steps this node in the
// current run, below the run's Config.Shards as EffectiveShards resolves
// it. Every Start and Round call of a node in one run happens on its
// shard, and a shard steps one node at a time, so state a protocol keeps
// per shard index is touched by one goroutine at a time, with the tick
// barrier between any two. It is the host's schedule, not the model's: a
// run reports the same at every shard count, so nothing a node sends or
// decides may depend on it (the flood family picks a free list of its
// wire boxes with it).
func (c *Context) Shard() int { return c.node / c.eng.shardSize }

// RequestWake schedules a timer event for this node delta ticks in the
// future (delta < 1 is clamped to 1): the node's Round is then called at
// that tick even if no message arrives. Timers are how asynchronous
// protocols arrange to act after a silent period; in the synchronous
// modes a node already holds a timer at every round it has not declared
// idle, so the call is a no-op there. Repeated calls keep the earliest
// requested tick. A target tick past math.MaxInt (a delta of Forever, say)
// saturates there instead of wrapping into the past, so it never fires.
func (c *Context) RequestWake(delta int) {
	delta = min(max(delta, 1), math.MaxInt-c.eng.round)
	c.eng.requestWake(c.node, c.eng.round+delta)
}

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
// transcript depends on it: ASYNC, which has no implicit timers, ignores
// it, and so does the tests' reference interpreter, which steps every
// awake node every round and is what a hinted run is tested against.
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
// neighbor at the start of the next round. Sending twice through the same
// port in one round, or using an invalid port, aborts the run with an error
// (it would violate the model).
func (c *Context) Send(port int, p Payload) {
	c.eng.send(c.node, port, p)
}

// Broadcast sends payload through every port.
func (c *Context) Broadcast(p Payload) {
	c.eng.sendAll(c.node, -1, p)
}

// BroadcastExcept sends payload through every port except skip (pass a
// negative skip to send on all ports).
func (c *Context) BroadcastExcept(skip int, p Payload) {
	c.eng.sendAll(c.node, skip, p)
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
	c.eng.halted[c.node] = true
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
	// BitCap overrides the per-message bit budget in CONGEST mode
	// (default: 32·⌈log2(n+2)⌉ + 64, a generous Θ(log n)).
	BitCap int
	// MaxRounds bounds the execution (default 1 << 20).
	MaxRounds int
	// PortSendCap bounds the number of messages a node may send through
	// one port in one round (default 8 in CONGEST mode, unlimited in
	// LOCAL). A constant number of Θ(log n)-bit messages per edge per
	// round is the usual constant-factor relaxation of CONGEST; every
	// message still counts individually toward the message complexity.
	PortSendCap int
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
	// Watched-edge crossing cut, folded at tick barriers (coordinator
	// only; see foldTick).
	crossed   bool
	msgsTotal int64
	maxTick   int // round cap; timers past it are never scheduled
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

// send and decide write only per-node slots (outbox row, send counters,
// status, scratch error/changed flags); the engine merges scratch state
// after each round. This keeps node steps race-free when shards step
// concurrently. Bits() is evaluated here, once, and cached alongside the
// payload so the cap check and the delivery accounting never re-dispatch
// through the interface.
func (e *engine) send(u, port int, p Payload) {
	if e.nodeErr[u] != nil {
		return
	}
	deg := int(e.off[u+1] - e.off[u])
	if port < 0 || port >= deg {
		e.nodeErr[u] = fmt.Errorf("%w: node %d port %d (degree %d)", ErrBadPort, u, port, deg)
		return
	}
	if e.sendCap > 0 {
		slot := int(e.off[u]) + port
		if int(e.sendCnt[slot]) >= e.sendCap {
			e.nodeErr[u] = fmt.Errorf("%w: node %d port %d round %d cap %d", ErrDoubleSend, u, port, e.round, e.sendCap)
			return
		}
		e.sendCnt[slot]++
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
	e.out[u] = append(e.out[u], outMsg{port: int32(port), bits: int32(bits), pl: p})
}

// sendAll is send(u, port, p) for every port but skip, in ascending port
// order, with everything that depends only on the payload — the node's
// error, nil, Bits() and the bit cap — tested once instead of once per
// port. The per-port send cap is still counted port by port. Whatever
// fails is handed, with the port it fails at, to send, so the error and
// the row prefix queued before it are exactly the per-port loop's.
func (e *engine) sendAll(u, skip int, p Payload) {
	if e.nodeErr[u] != nil {
		return
	}
	base := int(e.off[u])
	deg := int(e.off[u+1]) - base
	first := 0
	if skip == 0 {
		first = 1
	}
	if first >= deg {
		return
	}
	if p == nil {
		e.send(u, first, p)
		return
	}
	bits := p.Bits()
	if e.cfg.Model.Mode != LOCAL && bits > e.bitCap {
		e.send(u, first, p)
		return
	}
	row := e.out[u]
	m := outMsg{bits: int32(bits), pl: p}
	for port := first; port < deg; port++ {
		if port == skip {
			continue
		}
		if e.sendCap > 0 {
			if int(e.sendCnt[base+port]) >= e.sendCap {
				e.out[u] = row
				e.send(u, port, p)
				return
			}
			e.sendCnt[base+port]++
		}
		m.port = int32(port)
		row = append(row, m)
	}
	e.out[u] = row
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

// requestWake records a node's timer request in its private slot; the
// event loop's merge phase turns it into a queue event (race-free across
// concurrently stepping shards, like send and decide).
func (e *engine) requestWake(u, at int) {
	if !e.async {
		return // synchronous: round timers are implicit
	}
	if w := e.wakeAt[u]; w == 0 || at < w {
		e.wakeAt[u] = at
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
