// Sharded execution: the multi-core layout of the event-driven engine.
//
// The node index space is partitioned into EffectiveShards contiguous
// ranges. Each shard owns the full event machinery for its nodes — a
// timing wheel, the tick loop's scratch lists, a fault-event heap, the
// send counters of the node it is stepping — and every per-node row of
// the flat engine state (outbox arenas, inboxes, status vectors, linkSeq
// and idle slots) is written only by its owner, so shards step one tick
// concurrently without locks. The one cross-shard interaction is message
// routing: a sender whose neighbor lives in another shard parks a
// 16-byte reference to the message — its arrival tick and the sender's
// outbox slot — in a per-(src,dst) mailbox row instead of writing the
// receiver's inbox row (synchronous modes) or its own wheel (ASYNC). The
// message itself has one copy, in that slot, which nothing writes until
// the sender's next step. At the tick barrier every shard drains the rows
// addressed to it, in ascending source-shard order, reading each message
// in place: a synchronous one into its receiver's inbox row for the next
// tick, an ASYNC one into the wheel.
//
// A synchronous broadcast without link drops is not routed at all: as
// its sender's first send of the tick it stays one per-node slot
// (bcastSlot), and after the barrier every shard lands the slots'
// messages for its own nodes (landSlots) — on a dense tick by gathering
// over its nodes' ports in port order, on a sparse one by walking the
// tick's broadcaster lists. A link carries a slot message or outbox
// records in one tick, never both, so neither route can reorder a link.
//
// Determinism does not depend on the shard count. The only event order
// the simulation can observe is the per-link order of same-tick arrivals:
// the inbox is stably sorted by receiving port before any node sees it,
// and one port is one directed link, so only same-link messages have an
// observable relative order. A link has exactly one sender, a sender
// lives in exactly one shard, and both the sender's flush and the mailbox
// drain preserve its send order — so every interleaving the sharding
// changes is invisible. Everything else the engine accumulates (message,
// bit and drop totals, the crossing instrument, the running counters) is
// order-independent: sums, maxes, a per-tick or. The one ordered choice
// is which model violation a failing run reports when several nodes err
// in one round: the lowest-numbered one. Each shard keeps its own lowest,
// and the ranges ascend with the shard index, so the first shard holding
// an error holds that node. Same seed, same transcript, same error, any
// shard count.
package sim

const (
	// minNodesPerShard is the smallest node range the engine shards on its
	// own initiative: Config.Shards == 0 resolves to one shard per this
	// many nodes, up to the core count. Below it a tick rarely carries
	// enough work to repay two barriers.
	minNodesPerShard = 4096

	// maxShards bounds the shard count whatever the caller asks for.
	// Mailboxes are one row per (source, destination) pair and every tick
	// visits all of them, so cost grows with the square of the count,
	// while beyond the core count nothing is gained.
	maxShards = 64
)

// honorIdleHints is true outside this package's tests, which clear it to
// run the event engine with every Context.IdleUntil ignored: the reference
// for hinted runs under faults, which the tests' round-by-round reference
// interpreter (reference_test.go) does not model.
var honorIdleHints = true

// minPooledWork is the due work — nodes to step plus deliveries, wake-ups
// and timers to apply, summed over the shards — from which a tick is
// dispatched to the shard pool rather than run inline: where two barriers
// (a few microseconds) cost less than sharing the work saves
// (docs/PERFORMANCE.md, "Sharded engine scaling", has the measurement).
// A constant to everything but this package's tests, which force every
// tick onto the pool (0) or inline (math.MaxInt) to pin the two routes
// against each other.
var minPooledWork = 512

// minGatherShare is the share of the graph's directed edges that a
// tick's broadcast slots must carry messages over for the shards to land
// them by gathering (landSlots): each shard then reads every port of its
// own nodes once, in node and port order, instead of walking every
// broadcaster's ports. Gathering reads a slot for every port whatever
// the traffic; walking writes into rows in random order. Where the two
// cost the same is BenchmarkSlotLanding's crossing (docs/PERFORMANCE.md,
// "A broadcast is one slot"), at about 0.35 of the edges on one shard
// and 0.4 on two: walking every shard's lists costs a shard little next
// to its row writes, so the shard count hardly moves it. A constant to
// everything but this package's tests, which force every tick to gather
// (0) or to walk (+Inf) to pin the two routes against each other.
var minGatherShare = 0.4

// EffectiveShards resolves Config.Shards to the number of shards a run on
// an n-node graph uses, given procs = GOMAXPROCS. 0 lets the engine
// decide: one shard per minNodesPerShard nodes, at most procs. 1 forces
// the single-shard engine, k > 1 asks for exactly k, a negative value
// for procs. Every answer is clamped to [1, min(n, maxShards)] and then
// reduced to the number of non-empty ranges that cutting n nodes into
// ranges of ⌈n/shards⌉ leaves — 5 nodes asked into 4 shards are ranges of
// 2, and three of those hold them all — so no shard is ever empty. The
// count never changes a result, only the layout.
func EffectiveShards(shards, n, procs int) int {
	switch {
	case shards == 0:
		shards = min(procs, n/minNodesPerShard)
	case shards < 0:
		shards = procs
	}
	shards = max(1, min(shards, n, maxShards))
	size := (n + shards - 1) / shards
	return (n + size - 1) / size
}

// mailRef is one cross-shard message in flight, parked in a mailbox row
// until the barrier: its arrival tick and where it is — slot i of sender
// u's outbox row, which the flush leaves intact and nothing writes before
// u's next step, after the drain. The receiver and its port are resolved
// from the slot's sending port when the drain reads it.
type mailRef struct {
	at   int
	u, i int32
}

// engineShard owns the event-engine state of the contiguous node range
// [lo, hi). A single-shard run uses exactly one of these covering every
// node — that is the sequential engine.
type engineShard struct {
	id     int
	lo, hi int

	// wheel is the shard's private pending-event queue: wake-ups, timers
	// and ASYNC deliveries. Every event in it targets the shard's own
	// nodes.
	wheel *timingWheel

	// Tick-loop scratch (see event.go), all over own nodes only.
	active  []int // sorted ids of the nodes holding a round timer (synchronous modes)
	stepSet []int
	// recv lists the own nodes whose inbox rows hold arrivals (land): from
	// the flush and drain of tick t until tick t+1's step phase has read
	// them in the synchronous modes, within the tick in ASYNC.
	recv     []int
	wake     []int // own wake candidates this tick
	mergeBuf []int
	order    inboxOrder // inbox ordering scratch (arena.go)

	// faults is the shard's slice of the fault adversary: the event heap
	// and pending-recovery counter for its own node range (fault.go). nil
	// on fault-free runs, &faultBuf on faulty ones.
	faults   *faultState
	faultBuf faultState

	// mail[d] is the outbound mailbox toward shard d: references to the
	// messages for shard d's nodes sent by this shard's senders during the
	// current tick, in send order. Shard d drains it at the barrier.
	// mailed counts what the tick parked across all rows, so that a tick
	// without cross-shard traffic skips the drain phase.
	mail   [][]mailRef
	mailed int

	// bcasters lists the own nodes that kept a broadcast slot this tick,
	// in the order they stepped (a slot expanded since is passed over),
	// and slotSends counts the messages the live slots carry. Every
	// shard's landing reads the lists; the coordinator empties them at
	// the barrier.
	bcasters  []int32
	slotSends int

	// sendCnt counts, port by port, the sends of the node the shard is
	// stepping, for the per-port cap (Context.Send): loaded from the
	// node's outbox row before a step (what its Start sent earlier in the
	// tick) and cleared over the row's ports after it, so it is all zero
	// between steps. Max-degree long.
	sendCnt []int32

	// due is the work the coming tick is known to hold for this shard
	// (runTick); zero means nothing to do.
	due int

	// The tick's model violation by the shard's lowest-numbered erring
	// node (err == nil: none); the fold takes the first shard's.
	errNode int
	err     error

	shardCounts
}

// shardCounts is a shard's accounting over its own nodes for one run:
// zeroed as one value when the run starts (resetRun), summed at every
// tick barrier (foldTick) and added into the Result when the run ends
// (fold).
type shardCounts struct {
	// Quiescence counters; the coordinator sums them.
	pendingMsgs int // ASYNC deliveries queued in this shard's wheel
	numRunning  int // awake && !halted && alive

	// The arrivals landed in own rows and not yet delivered (arrive): how
	// many and their summed cached bits, so that the arrival pass never
	// touches a payload. Between ticks they are the synchronous messages
	// due next tick.
	arrivals    int
	arrivalBits int64

	// Run totals.
	msgs       int64
	bits       int64
	dropped    int64
	lastActive int
	crashes    int
	recoveries int

	// Per-tick scratch for the watched-edge crossing cut, folded at the
	// barrier (only maintained when edges are watched).
	sendDropTick int64
	crossedTick  bool
}

// resetRun re-arms the shard for one run, keeping every allocation but
// a send-counter row of another length than the graph's maximum degree.
func (sh *engineShard) resetRun(maxDeg int) {
	sh.sendCnt = resized(sh.sendCnt, maxDeg)
	clear(sh.sendCnt)
	sh.wheel.reset()
	sh.active = sh.active[:0]
	sh.stepSet = sh.stepSet[:0]
	sh.recv = sh.recv[:0]
	sh.wake = sh.wake[:0]
	for d := range sh.mail {
		sh.mail[d] = sh.mail[d][:0]
	}
	sh.mailed = 0
	sh.bcasters, sh.slotSends = sh.bcasters[:0], 0
	sh.faults = nil
	sh.err = nil
	sh.shardCounts = shardCounts{}
}

// fold adds the shard's run totals into out: sums, and the last active
// tick by maximum, so the Result does not depend on the shard layout.
func (sh *engineShard) fold(out *Result) {
	out.Messages += sh.msgs
	out.Bits += sh.bits
	out.Dropped += sh.dropped
	out.Crashes += sh.crashes
	out.Recoveries += sh.recoveries
	out.LastActive = max(out.LastActive, sh.lastActive)
}

// runTick executes one virtual-time tick: every shard steps its own
// events, a barrier, every shard drains the mailboxes addressed to it
// (ascending source-shard order) and lands the broadcast slots for its
// nodes, by the route the slots' total picks, a barrier, then the
// coordinator folds the per-shard tick scratch. What the tick holds is
// known before it runs — per shard, the nodes its round timers will step,
// the arrivals in its rows, and the deliveries, wake-ups and timers in
// the bucket that falls due. With at least minPooledWork of it, and a
// pool, both phases run concurrently; otherwise — a sparse tick, one
// shard, one core — they run inline in shard order, and a shard with
// nothing due sits the tick out, so that a sparse run costs what a single
// shard's would. A tick that parked no cross-shard mail and kept no
// broadcast slot skips the drain phase. The results are identical
// whichever way a tick goes.
func (e *engine) runTick(t int) {
	e.round = t
	work := 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.due = len(sh.active) + sh.arrivals
		if b := sh.wheel.peek(t); b != nil {
			sh.due += 1 + len(b.deliveries) + len(b.wakes) + len(b.timers)
			if b.wakeAll {
				sh.due += sh.hi - sh.lo
			}
		}
		work += sh.due
	}
	pooled := e.shardPool != nil && work >= minPooledWork
	if pooled {
		e.shardPool.runEach(len(e.shards), e.tickFn)
	}
	mailed, slotSends := 0, 0
	for i := range e.shards {
		sh := &e.shards[i]
		switch {
		case pooled:
		case sh.due == 0 && sh.faults == nil:
			sh.sendDropTick, sh.crossedTick = 0, false
			sh.wheel.advance(t)
		default:
			e.tickShard(sh, t)
		}
		mailed += sh.mailed
		sh.mailed = 0
		slotSends += sh.slotSends
	}
	e.slotSends = slotSends
	switch {
	case mailed == 0 && slotSends == 0:
	case pooled:
		e.shardPool.runEach(len(e.shards), e.drainFn)
	default:
		for i := range e.shards {
			e.drainMail(&e.shards[i])
		}
	}
	e.foldTick(t)
}

// drainMail moves every message parked for dst where it waits: a
// synchronous one into its receiver's inbox row for the next tick (land),
// an ASYNC one into dst's wheel. Rows are visited in ascending
// source-shard order and each row in send order, so the per-link arrival
// order in dst's rows and buckets is exactly the senders' flush order —
// the order the single-shard engine would have appended in. Each message
// is read in its sender's outbox slot, which its shard flushed before the
// barrier and does not write again until its next step phase. Then it
// lands the tick's broadcast slots for dst's nodes (landSlots). Runs
// concurrently per destination: dst writes only its own rows, wheel and
// counters, and resets only mailbox rows addressed to it.
func (e *engine) drainMail(dst *engineShard) {
	for si := range e.shards {
		src := &e.shards[si]
		row := src.mail[dst.id]
		if len(row) == 0 {
			continue
		}
		if e.async {
			for _, r := range row {
				b := dst.wheel.lend(r.at)
				b.deliveries = append(b.deliveries, e.unpark(r))
			}
			dst.pendingMsgs += len(row)
		} else {
			for _, r := range row {
				e.land(dst, e.unpark(r))
			}
		}
		src.mail[dst.id] = row[:0]
	}
	e.landSlots(dst)
}

// landSlots lands, in dst's rows for the next tick, the messages of
// this tick's broadcast slots whose receivers are dst's nodes. A slot
// stands for one message per port but its skipped one, and no link
// carries both a slot message and an outbox record in one tick (expand),
// so the order a row receives them in is the order the arrival pass
// restores anyway. On a tick whose slots carry at least minGatherShare of
// the directed edges, dst gathers: it reads each of its nodes' ports in
// port order and lands the message of the neighbour's live slot, if the
// slot does not skip the port back — the row writes run forwards and a
// row of slot messages alone is already in port order. On a sparser tick
// it walks the broadcaster lists, shard by shard, so that its work
// follows the traffic, and lands the messages whose receivers are its
// own.
func (e *engine) landSlots(dst *engineShard) {
	if e.slotSends == 0 {
		return
	}
	t := e.round
	if float64(e.slotSends) >= minGatherShare*float64(len(e.nbr)) {
		for v := dst.lo; v < dst.hi; v++ {
			base, end := int(e.off[v]), int(e.off[v+1])
			for p := base; p < end; p++ {
				s := &e.bcast[e.nbr[p]]
				if s.tick == t && s.skip != e.portBack[p] {
					e.land(dst, delivery{to: int32(v), port: int32(p - base), bits: s.bits, pl: s.pl})
				}
			}
		}
		return
	}
	lo, hi := int32(dst.lo), int32(dst.hi)
	for i := range e.shards {
		for _, u := range e.shards[i].bcasters {
			s := &e.bcast[u]
			if s.tick != t {
				continue
			}
			base, end := int(e.off[u]), int(e.off[u+1])
			for p := base; p < end; p++ {
				if to := e.nbr[p]; to >= lo && to < hi && int32(p-base) != s.skip {
					e.land(dst, delivery{to: to, port: e.portBack[p], bits: s.bits, pl: s.pl})
				}
			}
		}
	}
}

// unpark reads the message r refers to in its sender's outbox slot and
// resolves its receiver and receiving port.
func (e *engine) unpark(r mailRef) delivery {
	ob := e.out[r.u]
	m := ob[:cap(ob)][r.i]
	p := int(e.off[r.u]) + int(m.port)
	return delivery{to: e.nbr[p], port: e.portBack[p], bits: m.bits, pl: m.pl}
}

// foldTick resolves the per-shard tick scratch on the coordinator: the
// quiescence counters loopEvent selects the next tick by, the model
// violation of the round's lowest-numbered erring node (the first shard's
// that has one), and the watched-edge crossing cut — the tick of the
// first crossing and the messages before it — which must be computed
// against the whole tick's deliveries, not any one shard's. The landed
// broadcaster lists are emptied.
func (e *engine) foldTick(t int) {
	e.running, e.active, e.pendingMsgs, e.arrivals = 0, 0, 0, 0
	for i := range e.shards {
		sh := &e.shards[i]
		sh.bcasters, sh.slotSends = sh.bcasters[:0], 0
		e.running += sh.numRunning
		e.active += len(sh.active)
		e.pendingMsgs += sh.pendingMsgs
		e.arrivals += sh.arrivals
		if e.err == nil {
			e.err = sh.err
		}
	}
	if e.watch == nil {
		return
	}
	var msgs int64
	crossedNow := e.crossed
	for i := range e.shards {
		sh := &e.shards[i]
		msgs += sh.msgs - sh.sendDropTick
		crossedNow = crossedNow || sh.crossedTick
	}
	// Mirror the single-shard accounting order: deliveries land before
	// the crossing check, this tick's send-time drops after it.
	switch {
	case !crossedNow:
		e.res.MessagesBeforeCrossing = msgs
	case !e.crossed:
		e.res.FirstCrossing = t
	}
	e.crossed = crossedNow
}

// pendingUp sums the shards' pending-recovery counters.
func (e *engine) pendingUp() int {
	if e.fsched == nil {
		return 0
	}
	up := 0
	for i := range e.shards {
		if f := e.shards[i].faults; f != nil {
			up += f.pendingUp
		}
	}
	return up
}

// minFaultTick returns the earliest queued fault event across the
// shards' heaps (ok=false when none is queued).
func (e *engine) minFaultTick() (int, bool) {
	if e.fsched == nil {
		return 0, false
	}
	best, ok := 0, false
	for i := range e.shards {
		f := e.shards[i].faults
		if f == nil || len(f.heap) == 0 {
			continue
		}
		if ft := f.heap[0].tick; !ok || ft < best {
			best, ok = ft, true
		}
	}
	return best, ok
}
