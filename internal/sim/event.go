// Event-driven scheduler: the execution engine, for all modes.
//
// Instead of scanning every node in every round (which is how the tests'
// reference interpreter, reference_test.go, writes the synchronous model
// down), the engine keeps the pending events — message arrivals and timer
// wake-ups — and steps only the nodes an event touches. Sleeping and
// halted nodes cost zero work per tick, which is what makes
// sparse-activity workloads (adversarial wake-up, late quiet phases)
// cheap; quiescence detection is O(1) per tick via counters instead of
// O(n) scans.
//
// Where a pending message waits depends on when it arrives. In the
// synchronous modes every message sent at tick t arrives at t+1, so the
// flush writes it straight into its receiver's inbox row (when the
// receiver is another shard's, the mailbox drain does, from the sender's
// outbox slot; a broadcast kept as its sender's slot is landed by the
// receiver's shard after the barrier, shard.go), and tick t+1 reads it
// there. ASYNC's deliveries take 1..B ticks, so they wait as delivery
// records in per-tick buckets of a timing wheel (wheel.go) and are
// scattered into the rows when their tick falls due. Either way one
// arrival pass (arrive) then delivers what the rows hold. Scheduled
// wake-ups are wheel events in every mode, and so are the synchronous
// modes' timers.
//
// The nodes are partitioned into contiguous shards (shard.go), each
// owning a private wheel, scratch lists and fault heap; within a tick the
// shards step independently and exchange cross-shard messages at the
// barrier. Every function in this file that takes an
// *engineShard runs shard-local — it touches only the shard's own nodes'
// rows — while loopEvent and the fold/selection helpers run on the
// coordinator between barriers.
//
// There is one stepping rule: at a tick, exactly the nodes an event of
// that tick touches are stepped — a delivery, a scheduled wake-up, a
// timer. The modes differ only in whether timers exist. ASYNC has none:
// a node there has no clock, and each delivery's latency is drawn from
// the run's deterministic DelaySchedule. In the synchronous modes
// (CONGEST/LOCAL) protocols may count rounds while silent, so every awake
// node holds an implicit timer at every round (the shard's active list)
// unless it has promised, with Context.IdleUntil, that those rounds would
// be no-ops; such a node is parked — off the active list — until a
// delivery or the promised round, whose explicit timer waits in the
// wheel's timer bucket. A hint only ever removes no-op steps, so the
// observable behaviour is identical to the reference interpreter's, which
// ignores hints; sleeping, halted and parked nodes cost nothing per tick,
// and virtual time jumps over rounds in which no node has a timer.
package sim

import "sort"

// delivery is one message on its way to another node's row: an ASYNC
// arrival waiting in its tick's bucket, or a message being landed by the
// flush or the mailbox drain. bits caches the payload's send-time Bits()
// so delivery accounting never touches the interface.
type delivery struct {
	to   int32 // receiving node
	port int32 // receiving port
	bits int32 // cached payload size
	pl   Payload
}

// tickBucket holds every wheel event scheduled for one tick: ASYNC message
// arrivals, spontaneous wake-ups from the wake schedule, and timers — the
// ends of IdleUntil promises, which exist only in the synchronous modes
// (kept apart because a scheduled wake-up for a node that was meanwhile
// woken by a message is dead, while a timer steps its — awake, parked —
// node). wakeAll is the common "everyone wakes in round 1" schedule,
// kept implicit to avoid materializing an n-element slice per run (each
// shard's wheel interprets it over its own node range).
// deliveries holds ASYNC arrivals only — a synchronous message never
// enters the wheel — and is on loan from the wheel (nil until the first
// delivery is scheduled; see timingWheel.lend).
type tickBucket struct {
	deliveries []delivery
	wakes      []int
	timers     []int
	wakeAll    bool
}

// wakeRound returns node u's configured spontaneous wake round (1 when no
// schedule is set, <= 0 for wake-on-message).
func (e *engine) wakeRound(u int) int {
	if e.cfg.Wake == nil {
		return 1
	}
	return e.cfg.Wake[u]
}

// live reports whether node u is up. Fault-free runs have no membership
// vector and every node is up forever.
func (e *engine) live(u int) bool {
	return e.fAlive == nil || e.fAlive[u]
}

// loopEvent is the event-driven main loop (the coordinator). One rule
// picks the next virtual-time tick from the shards' queues and also
// decides that the run is over; between selections it runs the tick
// across the shards (runTick).
func (e *engine) loopEvent() {
	maxRounds := e.maxTick
	e.crossed = len(e.watch) == 0

	// Spontaneous wake-ups become timer events in their owner's wheel.
	// Wakes past the round cap can never fire.
	for i := range e.shards {
		sh := &e.shards[i]
		if e.cfg.Wake == nil {
			sh.wheel.at(1).wakeAll = true
			continue
		}
		for u := sh.lo; u < sh.hi; u++ {
			if wr := e.cfg.Wake[u]; wr > 0 && wr <= maxRounds {
				b := sh.wheel.at(wr)
				b.wakes = append(b.wakes, u)
			}
		}
	}

	t := 0
	for {
		// The next tick is t+1 while messages are due there or, in the
		// synchronous modes, a node on an active list holds a round timer
		// (pending fault events due by t+1 apply at its start). Otherwise
		// time jumps to the next event, after the buckets whose events
		// have all gone stale are discarded: a leftover wake-up for a
		// node a message woke earlier must not keep the run alive or
		// inflate Rounds.
		next := t + 1
		if e.arrivals == 0 && (e.async || e.active == 0) {
			wm, live := e.pruneDeadEvents()
			switch {
			case live || (!e.async && e.running > 0) || e.pendingUp() > 0:
				// A live event, a parked node one may yet rouse, or a crashed
				// node scheduled to come back: jump to the next event or
				// membership change, whichever is first, so that every fault
				// event applies at its due tick. With no event queued, parked
				// nodes only reach the cap.
				if !live {
					wm = maxRounds + 1
				}
				next = wm
				if fm, have := e.minFaultTick(); have && fm < next {
					next = fm
				}
			default:
				// Nothing in flight, nothing scheduled, nobody running or
				// every running node halted: the network is dead. Fault
				// events without a pending recovery cannot revive it —
				// crashes scheduled past this point never fire, and neither
				// does a churn leave queued while every node is up. A network
				// dead on arrival still "runs" its first round: round 1 is
				// where a round-by-round execution finds that out.
				e.res.Rounds = max(t, 1)
				return
			}
		}
		if next > maxRounds {
			e.res.Rounds = maxRounds
			e.res.HitRoundCap = true
			return
		}
		t = next
		e.runTick(t)
		if e.err != nil {
			return
		}
		// With a recovery pending the run is never over: the rejoining
		// node re-enters (with reset state it even re-Starts).
		if e.cfg.StopWhenQuiet && e.pendingMsgs == 0 && e.arrivals == 0 &&
			e.pendingUp() == 0 && e.allDecided() {
			e.res.Rounds = t
			return
		}
	}
}

// pruneDeadEvents drops minimum-tick buckets that no longer hold any live
// event. An ASYNC delivery is always live (even one bound for a crashed
// node — it must still be drained and accounted as dropped); a scheduled
// wake-up is live while its node still sleeps; a timer is live while its
// non-halted node is parked until exactly that tick (a node roused
// earlier queues a fresh timer if it parks again). Wakes and timers of a
// crashed node are dead, unless a recovery is pending anywhere: the node
// might be back up by the bucket's tick, so pruning stays conservative
// then. A discarded bucket could never have done anything.
//
// The scan runs over the globally earliest pending bucket each
// iteration — exactly the order a single queue would present — and stops
// at the first live one, so the shard layout cannot change which buckets
// are dropped before a given tick is selected. It returns that bucket's
// tick: the earliest pending tick across all wheels (ok=false when every
// wheel has run empty).
func (e *engine) pruneDeadEvents() (tick int, ok bool) {
	pendingUp := e.pendingUp()
	for {
		var sh *engineShard
		best := 0
		for i := range e.shards {
			s := &e.shards[i]
			if s.wheel.empty() {
				continue
			}
			if mt := s.wheel.minTick(); sh == nil || mt < best {
				sh, best = s, mt
			}
		}
		if sh == nil {
			return 0, false
		}
		b := sh.wheel.peek(best)
		if len(b.deliveries) > 0 || b.wakeAll {
			return best, true
		}
		for _, u := range b.wakes {
			if !e.awake[u] && (e.live(u) || pendingUp > 0) {
				return best, true
			}
		}
		for _, u := range b.timers {
			if !e.halted[u] && (e.live(u) || pendingUp > 0) && e.idle[u] == best {
				return best, true
			}
		}
		sh.wheel.drop(best)
	}
}

// allDecided ignores crashed nodes: a dead undecided node cannot block
// StopWhenQuiet (the pendingUp gate in loopEvent already keeps the run
// alive while any of them is scheduled to recover).
func (e *engine) allDecided() bool {
	for u, s := range e.status {
		if s == Undecided && e.live(u) {
			return false
		}
	}
	return true
}

// tickShard processes every event scheduled for tick t in one shard and
// steps the nodes those events (and, in the synchronous modes, the active
// list's implicit round timers) touch. Shard-local: every row it writes
// belongs to one of the shard's own nodes, so shards run this concurrently.
func (e *engine) tickShard(sh *engineShard, t int) {
	if e.watch != nil {
		sh.sendDropTick, sh.crossedTick = 0, false
	}
	sh.err = nil
	sh.wake = sh.wake[:0]
	sh.stepSet = sh.stepSet[:0]

	// Membership changes first: a node crashed at t misses t's deliveries
	// and wake-ups — what was written into its row is lost in the arrival
	// pass below — and a node recovered at t takes part in them.
	if sh.faults != nil {
		sh.faults.revived = sh.faults.revived[:0]
		e.applyFaults(sh, t)
	}

	sh.wheel.advance(t)
	b := sh.wheel.takeCurrent(t)
	if b != nil {
		// ASYNC arrivals due now join the rows the synchronous flush
		// writes directly.
		for _, d := range b.deliveries {
			e.land(sh, d)
		}
		sh.pendingMsgs -= len(b.deliveries)
		// Scheduled wake-ups rouse (live) sleepers; a wake for a node
		// that a message woke earlier is dead.
		if b.wakeAll {
			for u := sh.lo; u < sh.hi; u++ {
				if !e.awake[u] && e.live(u) {
					sh.wake = append(sh.wake, u)
				}
			}
		} else {
			for _, u := range b.wakes {
				if !e.awake[u] && e.live(u) {
					sh.wake = append(sh.wake, u)
				}
			}
		}
		// A timer steps its (awake, live) node only if the node is still
		// parked until this very round.
		for _, u := range b.timers {
			if e.awake[u] && !e.halted[u] && e.live(u) && e.idle[u] == t {
				sh.stepSet = append(sh.stepSet, u)
			}
		}
		sh.wheel.release(b)
	}
	e.arrive(sh, t)
	// Deliveries wake sleeping receivers and step awake ones — in the
	// synchronous modes the parked ones; the others hold a round timer.
	for _, v := range sh.recv {
		if !e.awake[v] {
			sh.wake = append(sh.wake, v)
		} else if e.async || e.idle[v] != 0 {
			sh.stepSet = append(sh.stepSet, v)
		}
	}

	// Start phase: newly-woken nodes, in ascending node order. sh.wake may
	// hold duplicates; the awake check deduplicates. started keeps the
	// nodes actually woken.
	sort.Ints(sh.wake)
	started := sh.wake[:0]
	for _, u := range sh.wake {
		if e.awake[u] {
			continue
		}
		e.awake[u] = true
		sh.numRunning++
		wr := e.wakeRound(u)
		spont := wr > 0 && t >= wr && len(e.inbox[u]) == 0
		if e.fRejoined != nil && e.fRejoined[u] {
			// A reset-state rejoin is a spontaneous (re)start regardless
			// of the wake schedule — unless a message arrived this tick.
			e.fRejoined[u] = false
			spont = len(e.inbox[u]) == 0
		}
		e.ctxs[u].spontaneous = spont
		e.ctxs[u].steps++
		e.procs[u].Start(&e.ctxs[u])
		sh.clearSends(e.out[u])
		started = append(started, u)
	}

	// Build the step set: exactly the nodes an event touched — fired
	// timers and receivers (above), fresh wake-ups, and in the synchronous
	// modes keep-state revivals, whose round timers resume.
	cand := append(sh.stepSet, started...)
	if !e.async && sh.faults != nil {
		cand = append(cand, sh.faults.revived...)
	}
	if len(cand) > 1 {
		sort.Ints(cand)
	}
	w, prev := 0, -1
	for _, u := range cand {
		if u == prev || e.halted[u] {
			continue // duplicate, or halted inside Start just above
		}
		prev = u
		cand[w] = u
		w++
	}
	sh.stepSet = cand[:w]
	step := sh.stepSet
	if !e.async {
		// Synchronous: plus every node holding a round timer. The touched
		// nodes join the active list — their hints lapse — and crashed ones
		// leave it (a node whose crash and revival applied at one processed
		// tick never left, hence the merge drops duplicates).
		if len(step) > 0 {
			for _, u := range step {
				e.idle[u] = 0
			}
			sh.active = mergeSorted(sh.active, step, &sh.mergeBuf)
		}
		if sh.faults != nil {
			w = 0
			for _, u := range sh.active {
				if e.live(u) {
					sh.active[w] = u
					w++
				}
			}
			sh.active = sh.active[:w]
		}
		step = sh.active
	}

	// Step phase. A node's Start and Round of one tick share its per-port
	// send cap: what Start queued is counted again before Round.
	for _, u := range step {
		sh.loadSends(e.out[u])
		e.ctxs[u].steps++
		e.procs[u].Round(&e.ctxs[u], e.inbox[u])
		sh.clearSends(e.out[u])
	}

	// The tick's rows are read: empty them, so that the flush can write
	// the next tick's arrivals into them and list their receivers anew.
	for _, v := range sh.recv {
		e.inbox[v] = e.inbox[v][:0]
	}
	sh.recv = sh.recv[:0]

	// Merge phase: fold each touched node's private scratch (errors,
	// status changes, halts) into the shard, and flush its outbox.
	// started ⊆ step except for nodes that halted inside Start, so
	// visiting both lists covers every touched node; all merges are
	// idempotent across the overlap.
	e.mergeAndFlush(sh, started, t)
	e.mergeAndFlush(sh, step, t)

	if !e.async {
		// A stepped node keeps its round timers unless it halted or promised
		// to idle beyond the next round: then it is parked, with an explicit
		// timer where the promise ends (none past the round cap).
		w := 0
		for _, u := range step {
			if e.halted[u] {
				continue
			}
			until := e.idle[u]
			if until > t+1 {
				if until <= e.maxTick {
					bw := sh.wheel.at(until)
					bw.timers = append(bw.timers, u)
				}
				continue
			}
			if until != 0 {
				e.idle[u] = 0
			}
			step[w] = u
			w++
		}
		sh.active = step[:w]
	}
}

// land writes delivery d into its receiver's inbox row — a node of the
// shard's own — listing the receiver in recv at its first arrival and
// counting the message, with its cached size, for the arrival pass. It is
// the one way a message reaches a row: the synchronous flush, mailbox
// drain and slot landing call it at tick t for tick t+1, an ASYNC tick
// for the bucket that falls due.
func (e *engine) land(sh *engineShard, d delivery) {
	v := int(d.to)
	if len(e.inbox[v]) == 0 {
		sh.recv = append(sh.recv, v)
	}
	e.inbox[v] = append(e.inbox[v], Message{Port: int(d.port), Payload: d.pl})
	sh.arrivals++
	sh.arrivalBits += int64(d.bits)
}

// arrive is the arrival pass: it delivers at tick t what the shard's rows
// hold — the rows recv lists — with the full accounting (totals from the
// counters land kept, a watched edge's crossing until the first one), and
// loses what reached a receiver that is down by now, though its sender
// paid for it. Then it orders every surviving row once.
func (e *engine) arrive(sh *engineShard, t int) {
	k := sh.arrivals
	if k == 0 {
		return
	}
	sh.msgs += int64(k)
	sh.bits += sh.arrivalBits
	sh.arrivals, sh.arrivalBits = 0, 0
	sh.lastActive = t
	// crossed is the coordinator's, written only at the barrier: until the
	// first crossing every shard looks for one in its rows.
	if !e.crossed || e.fAlive != nil {
		w := 0
		for _, v := range sh.recv {
			row := e.inbox[v]
			if !e.crossed && !sh.crossedTick {
				base := int(e.off[v])
				for _, m := range row {
					if e.watch[normPair(v, int(e.nbr[base+m.Port]))] {
						sh.crossedTick = true
						break
					}
				}
			}
			if !e.live(v) {
				sh.dropped += int64(len(row))
				e.inbox[v] = row[:0]
				continue
			}
			sh.recv[w] = v
			w++
		}
		sh.recv = sh.recv[:w]
	}
	// On a tick that reached a good share of the shard's nodes, list the
	// receivers again in node order — which is the order their rows lie in
	// the slab — so that the ordering pass and the tick's later ones over
	// recv walk memory forwards instead of in order of first arrival.
	// Nothing can observe recv's order: wake and step candidates are
	// sorted before use.
	if 4*len(sh.recv) >= sh.hi-sh.lo {
		sh.recv = sh.recv[:0]
		for v := sh.lo; v < sh.hi; v++ {
			if len(e.inbox[v]) != 0 {
				sh.recv = append(sh.recv, v)
			}
		}
	}
	// Deterministic inbox order: ascending receiving port, preserving
	// per-link send order within a port.
	for _, v := range sh.recv {
		sh.order.orderInbox(e.inbox[v], int(e.off[v+1]-e.off[v]))
	}
}

// mergeAndFlush folds the private scratch of each node in list into its
// shard and sends the node's outbox on, in two passes over list. The
// first routes every message that leaves the shard or the tick — an ASYNC
// one for an own node into the wheel bucket of its arrival tick, any one
// for another shard's node as a reference to its outbox slot into the
// mailbox row toward that shard — and marks the ones lost on their
// link (port −1), moving nothing: the referenced slots must stay put. The
// second lands the synchronous messages for the shard's own nodes, found
// again by their receiver's range, in their receivers' rows for tick t+1
// and empties the row, whose slots keep their messages for the drain. So
// the scattered writes into the rows run on their own, in one tight loop,
// not interleaved with the sequential mailbox appends and the per-node
// bookkeeping of the first pass; landing them inside the first pass cost
// elect-dense CPU time (docs/PERFORMANCE.md § "A synchronous message
// never enters the wheel"). A single shard's synchronous run without link
// drops has nothing to route, and a broadcast kept as its sender's slot
// (sendAll) is not in the outbox row at all. Safe to call on overlapping lists: every
// merge is guarded or self-clearing, and an emptied outbox is skipped.
func (e *engine) mergeAndFlush(sh *engineShard, list []int, t int) {
	lo, hi := int32(sh.lo), int32(sh.hi)
	dropActive := e.fsched != nil && e.fsched.dropP > 0
	perLink := e.async || dropActive
	route := perLink || len(e.shards) > 1
	mailed := 0
	for _, u := range list {
		if err := e.nodeErr[u]; err != nil && (sh.err == nil || u < sh.errNode) {
			sh.errNode, sh.err = u, err
		}
		if e.changed[u] {
			e.changed[u] = false
			sh.lastActive = t
		}
		ob := e.out[u]
		if len(ob) == 0 || !route {
			continue
		}
		base := int(e.off[u])
		for i, m := range ob {
			p := base + int(m.port)
			to, at := e.nbr[p], t+1
			if perLink {
				// Each send consumes its link's sequence number, the shared
				// coordinate of the drop predicate and the delay schedule.
				seq := int(e.linkSeq[p])
				e.linkSeq[p]++
				if seq == 0 && e.linkDelay != nil {
					e.linkMix[p] = linkMix(e.cfg.Seed, u, int(m.port))
				}
				if dropActive && e.fsched.dropMsg(e.cfg.Seed, u, int(m.port), seq) {
					// Lost on the link: charged to the sender at drop time
					// (the arrival pass never sees it), but it neither
					// crosses the edge nor counts as activity.
					sh.dropped++
					sh.msgs++
					sh.bits += int64(m.bits)
					if e.watch != nil {
						sh.sendDropTick++
					}
					ob[i].port = -1
					continue
				}
				switch {
				case e.linkDelay != nil:
					at = t + e.linkDelay.delayFrom(e.linkMix[p], seq)
				case e.async:
					// A custom schedule must not move time backwards.
					at = t + max(e.delay.Delay(e.cfg.Seed, u, int(m.port), seq), 1)
				}
			}
			switch {
			case to < lo || to >= hi:
				ds := int(to) / e.shardSize
				sh.mail[ds] = append(sh.mail[ds], mailRef{at: at, u: int32(u), i: int32(i)})
				mailed++
			case e.async:
				b := sh.wheel.lend(at)
				b.deliveries = append(b.deliveries, delivery{to: to, port: e.portBack[p], bits: m.bits, pl: m.pl})
				sh.pendingMsgs++
			}
		}
		if e.async {
			e.out[u] = ob[:0]
		}
	}
	sh.mailed += mailed
	for _, u := range list {
		ob := e.out[u]
		if len(ob) == 0 {
			continue
		}
		// Synchronous: a message for an own node arrives next tick, in its
		// receiver's row (a single shard's range is every node).
		base := int(e.off[u])
		for _, m := range ob {
			if m.port < 0 {
				continue
			}
			p := base + int(m.port)
			if to := e.nbr[p]; to >= lo && to < hi {
				e.land(sh, delivery{to: to, port: e.portBack[p], bits: m.bits, pl: m.pl})
			}
		}
		e.out[u] = ob[:0]
	}
}

// mergeSorted merges two ascending duplicate-free int slices (reusing
// *buf as scratch), returning their ascending duplicate-free union.
func mergeSorted(a, b []int, buf *[]int) []int {
	out := (*buf)[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	// Swap backing arrays so both the result and the scratch stay reusable.
	*buf = a[:0]
	return out
}
