// Fault and churn injection: the seed-deterministic fault adversary.
//
// A FaultSchedule is the parsed form of a fault-model spec string (see
// ParseFaults). Like the delay schedules in schedule.go, every fault a
// schedule injects is a pure function of (run seed, node index) — crash
// times, downtime windows, churn phases and per-message link drops are
// all derived with splitmix64 chains from the run seed, so a faulty run
// replays byte-identically from its seed alone, at any worker count.
//
// The supported models, in the standard taxonomy (Aspnes' notes):
//
//	crash:P[:W]         crash-stop: each node independently fails with
//	                    probability P, at a seed-derived tick in [1, W]
//	                    (W defaults to 64). Failed nodes stop stepping
//	                    forever; in-flight deliveries to them are lost.
//	crash@T:u1,u2,...   adversarial crash-stop: exactly the listed nodes
//	                    fail at tick T (targeted experiments, e.g.
//	                    killing the eventual leader).
//	crashrec:P:D[:keep] crash-recovery: crash-stop plus a revival D ticks
//	                    after each crash. By default a node revives with
//	                    reset state — a fresh Process that Starts again,
//	                    the model of a process restarting from scratch.
//	                    With :keep it revives with its pre-crash state
//	                    intact (persistent-state recovery), resuming
//	                    where it stopped but having missed all traffic.
//	drop:P              lossy links: every message is independently lost
//	                    with probability P at send time. Lost messages
//	                    are charged to the sender (they count toward
//	                    Messages and Bits) but never delivered.
//	churn:P:K           join/leave churn: each node independently
//	                    participates with probability P; a churning node
//	                    alternates K ticks up, K ticks down, with a
//	                    seed-derived phase. Every rejoin is a fresh join
//	                    (reset state), so the live membership is dynamic
//	                    for the whole run.
//
// One node-fault term (crash/crashrec/churn) and one drop term may be
// composed with "+": "crashrec:0.2:32+drop:0.05". The engine applies a
// fault event at the start of its due tick, before that tick's
// deliveries: a quiet run's time jumps to the next event or membership
// change, whichever is first, so no event applies late and a churn
// node's phase holds. Events scheduled after the run has quiesced (and
// past MaxRounds) never fire. Only a pending recovery keeps a quiet run
// alive — a network that looks dead can be revived by a rejoining node;
// a churn leave queued while every node is up does not, or every quiet
// churn run would reach the round cap.
package sim

import (
	"fmt"
	"strconv"
	"strings"
)

// faultClass is the node-fault model of a FaultSchedule.
type faultClass uint8

const (
	faultNone     faultClass = iota
	faultCrash               // crash:P[:W]
	faultCrashAt             // crash@T:nodes
	faultCrashRec            // crashrec:P:D[:keep]
	faultChurn               // churn:P:K
)

// DefaultCrashWindow is the tick window [1, W] in which probabilistic
// crash models (crash:P, crashrec:P:D) place each node's failure when
// the spec does not name one.
const DefaultCrashWindow = 64

// FaultSchedule is a parsed, immutable fault-model description. The zero
// schedule is not meaningful; nil means fault-free. Build one with
// ParseFaults (or through ParseModel); a schedule is safe to share
// across runs and goroutines.
type FaultSchedule struct {
	class  faultClass
	p      float64 // node-fault participation probability
	window int     // crash-tick window for crash/crashrec
	down   int     // downtime ticks (crashrec) / half-period (churn)
	keep   bool    // crashrec: revive with persisted state
	at     int     // faultCrashAt tick
	nodes  []int   // faultCrashAt targets
	dropP  float64 // link-drop probability (0 = lossless)
}

// Name returns the canonical spec string (ParseFaults(s).Name() parses
// back to an equivalent schedule).
func (fs *FaultSchedule) Name() string {
	if fs == nil {
		return "none"
	}
	var terms []string
	switch fs.class {
	case faultCrash:
		if fs.window == DefaultCrashWindow {
			terms = append(terms, fmt.Sprintf("crash:%v", fs.p))
		} else {
			terms = append(terms, fmt.Sprintf("crash:%v:%d", fs.p, fs.window))
		}
	case faultCrashAt:
		strs := make([]string, len(fs.nodes))
		for i, u := range fs.nodes {
			strs[i] = strconv.Itoa(u)
		}
		terms = append(terms, fmt.Sprintf("crash@%d:%s", fs.at, strings.Join(strs, ",")))
	case faultCrashRec:
		t := fmt.Sprintf("crashrec:%v:%d", fs.p, fs.down)
		if fs.keep {
			t += ":keep"
		}
		terms = append(terms, t)
	case faultChurn:
		terms = append(terms, fmt.Sprintf("churn:%v:%d", fs.p, fs.down))
	}
	if fs.dropP > 0 {
		terms = append(terms, fmt.Sprintf("drop:%v", fs.dropP))
	}
	if len(terms) == 0 {
		return "none"
	}
	return strings.Join(terms, "+")
}

// ParseFaults resolves a fault-schedule spec string. "" and "none" mean
// fault-free and return nil. Terms are "+"-separated; at most one
// node-fault term (crash:P[:W], crash@T:nodes, crashrec:P:D[:keep],
// churn:P:K) and at most one drop:P term may be combined.
func ParseFaults(spec string) (*FaultSchedule, error) {
	if spec == "" || spec == "none" {
		return nil, nil
	}
	fs := &FaultSchedule{}
	for _, term := range strings.Split(spec, "+") {
		if err := fs.addTerm(term); err != nil {
			return nil, err
		}
	}
	if fs.class == faultNone && fs.dropP == 0 {
		return nil, fmt.Errorf("sim: empty fault schedule %q", spec)
	}
	return fs, nil
}

func (fs *FaultSchedule) addTerm(term string) error {
	kind, arg, _ := strings.Cut(term, ":")
	if at, list, ok := strings.Cut(kind, "@"); ok && at == "crash" {
		return fs.addCrashAt(term, list, arg)
	}
	switch kind {
	case "crash":
		if fs.class != faultNone {
			return fmt.Errorf("sim: fault schedule %q has two node-fault terms", term)
		}
		parts := strings.Split(arg, ":")
		if len(parts) < 1 || len(parts) > 2 {
			return fmt.Errorf("sim: fault term %q wants crash:P or crash:P:W", term)
		}
		p, err := parseProb(parts[0])
		if err != nil {
			return fmt.Errorf("sim: fault term %q: %w", term, err)
		}
		fs.class, fs.p, fs.window = faultCrash, p, DefaultCrashWindow
		if len(parts) == 2 {
			w, err := strconv.Atoi(parts[1])
			if err != nil || w < 1 {
				return fmt.Errorf("sim: fault term %q needs a positive integer window", term)
			}
			fs.window = w
		}
	case "crashrec":
		if fs.class != faultNone {
			return fmt.Errorf("sim: fault schedule %q has two node-fault terms", term)
		}
		parts := strings.Split(arg, ":")
		if len(parts) < 2 || len(parts) > 3 || (len(parts) == 3 && parts[2] != "keep") {
			return fmt.Errorf("sim: fault term %q wants crashrec:P:D or crashrec:P:D:keep", term)
		}
		p, err := parseProb(parts[0])
		if err != nil {
			return fmt.Errorf("sim: fault term %q: %w", term, err)
		}
		d, err := strconv.Atoi(parts[1])
		if err != nil || d < 1 {
			return fmt.Errorf("sim: fault term %q needs a positive integer downtime", term)
		}
		fs.class, fs.p, fs.down, fs.window = faultCrashRec, p, d, DefaultCrashWindow
		fs.keep = len(parts) == 3
	case "churn":
		if fs.class != faultNone {
			return fmt.Errorf("sim: fault schedule %q has two node-fault terms", term)
		}
		parts := strings.Split(arg, ":")
		if len(parts) != 2 {
			return fmt.Errorf("sim: fault term %q wants churn:P:K", term)
		}
		p, err := parseProb(parts[0])
		if err != nil {
			return fmt.Errorf("sim: fault term %q: %w", term, err)
		}
		k, err := strconv.Atoi(parts[1])
		if err != nil || k < 1 {
			return fmt.Errorf("sim: fault term %q needs a positive integer half-period", term)
		}
		fs.class, fs.p, fs.down = faultChurn, p, k
	case "drop":
		if fs.dropP > 0 {
			return fmt.Errorf("sim: fault schedule %q has two drop terms", term)
		}
		p, err := parseProb(arg)
		if err != nil || p == 0 {
			return fmt.Errorf("sim: fault term %q needs a drop probability in (0, 1]", term)
		}
		fs.dropP = p
	default:
		return fmt.Errorf("sim: unknown fault term %q (want crash, crash@, crashrec, drop or churn)", term)
	}
	return nil
}

func (fs *FaultSchedule) addCrashAt(term, tickStr, nodeList string) error {
	if fs.class != faultNone {
		return fmt.Errorf("sim: fault schedule %q has two node-fault terms", term)
	}
	at, err := strconv.Atoi(tickStr)
	if err != nil || at < 1 {
		return fmt.Errorf("sim: fault term %q needs a positive crash tick", term)
	}
	if nodeList == "" {
		return fmt.Errorf("sim: fault term %q needs a node list (crash@T:u1,u2,...)", term)
	}
	var nodes []int
	for _, s := range strings.Split(nodeList, ",") {
		u, err := strconv.Atoi(s)
		if err != nil || u < 0 {
			return fmt.Errorf("sim: fault term %q has invalid node %q", term, s)
		}
		nodes = append(nodes, u)
	}
	fs.class, fs.at, fs.nodes = faultCrashAt, at, nodes
	return nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil || p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %q not in [0, 1]", s)
	}
	return p, nil
}

// Fault-derivation salts: distinct splitmix64 stream offsets so crash
// participation, crash times, churn phases and link drops are mutually
// independent and independent of the node-coin and delay streams.
const (
	faultSaltPart  = 0x7f4a7c15ca11ab1e
	faultSaltTick  = 0x51ab2de7c0ffee11
	faultSaltPhase = 0x2545f4914f6cdd1d
	faultSaltDrop  = 0x9e3779b97f4a7c15
)

// faultHash derives one 64-bit fault coordinate from the run seed, a
// node (or port) index and a stream salt.
func faultHash(seed int64, u int, salt uint64) uint64 {
	h := SplitMix64(uint64(seed) ^ salt)
	return SplitMix64(h ^ uint64(u)*0x9e3779b97f4a7c15)
}

// hitsProb reports whether the 53-bit fraction of h falls below p.
func hitsProb(h uint64, p float64) bool {
	return float64(h>>11)/(1<<53) < p
}

// dropMsg is the per-message link-drop predicate: deterministic in (run
// seed, sender, port, per-link sequence number), exactly the coordinate
// system of the delay schedules.
func (fs *FaultSchedule) dropMsg(seed int64, u, p, seq int) bool {
	if fs.dropP == 0 {
		return false
	}
	h := SplitMix64(faultHash(seed, u, faultSaltDrop) ^ SplitMix64(uint64(p)<<32|uint64(uint32(seq))))
	return hitsProb(h, fs.dropP)
}

// Fault event kinds. Within one tick, events apply in (tick, node, kind)
// order; a node's crash precedes its recovery at equal ticks by
// construction (downtimes are >= 1).
const (
	fvCrash   = uint8(0) // node goes down (crash / churn leave)
	fvRecover = uint8(1) // node comes back (recovery / churn join)
)

// faultEvent is one scheduled membership change.
type faultEvent struct {
	tick int
	node int32
	kind uint8
}

func faultEventLess(a, b faultEvent) bool {
	if a.tick != b.tick {
		return a.tick < b.tick
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.kind < b.kind
}

// faultState is one shard's slice of the fault adversary, owned by its
// engineShard and recycled across runs (its slices are allocated once
// and reset). It holds the fault-event heap and pending-recovery counter
// for the shard's node range [lo, hi); the global membership vectors
// (alive/rejoined) live on the engine, shared by all shards but written
// only by each node's owner. A shard's faultState is only attached when
// the run's Config carries a schedule, so the fault-free path never
// touches it.
type faultState struct {
	fs      *FaultSchedule
	revived []int // keep-state revivals to splice back into the step sets

	heap      minHeap[faultEvent] // by faultEventLess: (tick, node, kind)
	pendingUp int                 // queued fvRecover events (they can revive a quiet run)

	maxTick int
}

// reset re-arms the state for one run and seeds the initial event heap
// from the schedule, restricted to the shard's node range. The per-node
// fault coordinates depend only on (seed, u), so the heap a shard seeds
// is exactly the [lo, hi) slice of the single-shard heap.
func (fst *faultState) reset(fs *FaultSchedule, seed int64, lo, hi, maxTick int) {
	fst.fs = fs
	fst.maxTick = maxTick
	fst.heap = fst.heap[:0]
	fst.revived = fst.revived[:0]
	fst.pendingUp = 0
	switch fs.class {
	case faultCrashAt:
		for _, u := range fs.nodes {
			if u >= lo && u < hi && fs.at <= maxTick {
				fst.push(faultEvent{tick: fs.at, node: int32(u), kind: fvCrash})
			}
		}
	case faultCrash, faultCrashRec:
		for u := lo; u < hi; u++ {
			if !hitsProb(faultHash(seed, u, faultSaltPart), fs.p) {
				continue
			}
			t := 1 + int(faultHash(seed, u, faultSaltTick)%uint64(fs.window))
			if t > maxTick {
				continue
			}
			fst.push(faultEvent{tick: t, node: int32(u), kind: fvCrash})
			if fs.class == faultCrashRec {
				fst.pushRecover(t+fs.down, int32(u))
			}
		}
	case faultChurn:
		for u := lo; u < hi; u++ {
			if !hitsProb(faultHash(seed, u, faultSaltPart), fs.p) {
				continue
			}
			t := 1 + int(faultHash(seed, u, faultSaltPhase)%uint64(fs.down))
			if t <= maxTick {
				fst.push(faultEvent{tick: t, node: int32(u), kind: fvCrash})
			}
		}
	}
}

func (fst *faultState) pushRecover(t int, u int32) {
	if t > fst.maxTick {
		return // the node stays down past the run's horizon
	}
	fst.pendingUp++
	fst.push(faultEvent{tick: t, node: u, kind: fvRecover})
}

func (fst *faultState) push(ev faultEvent) { fst.heap.push(ev, faultEventLess) }

// applyFaults pops and applies every fault event of one shard due at or
// before tick t. Crashes silence a node (it stops stepping; whatever
// arrives for it while it is down — including what its row already holds
// for t — is dropped by the arrival pass); recoveries bring it back —
// reset-state recoveries and churn joins install a fresh Process and
// Start it this tick, keep-state recoveries resume the surviving
// Process. Every write targets the shard's own nodes or its own
// counters, so shards apply their heaps concurrently; within a shard,
// events apply in the global (tick, node, kind) order, and events of
// different shards touch disjoint state, so the shard layout cannot
// change the outcome.
func (e *engine) applyFaults(sh *engineShard, t int) {
	fst := sh.faults
	for len(fst.heap) > 0 && fst.heap[0].tick <= t {
		ev := fst.heap.pop(faultEventLess)
		u := int(ev.node)
		switch ev.kind {
		case fvCrash:
			if !e.fAlive[u] {
				continue
			}
			e.fAlive[u] = false
			sh.crashes++
			if e.awake[u] && !e.halted[u] {
				sh.numRunning--
			}
			e.idle[u] = 0 // a revived node holds its round timers again
			if fst.fs.class == faultChurn {
				fst.pushRecover(t+fst.fs.down, ev.node)
			}
		case fvRecover:
			fst.pendingUp--
			if e.fAlive[u] {
				continue
			}
			e.fAlive[u] = true
			sh.recoveries++
			if fst.fs.class == faultChurn {
				if next := t + fst.fs.down; next <= fst.maxTick {
					fst.push(faultEvent{tick: next, node: ev.node, kind: fvCrash})
				}
			}
			if fst.fs.keep {
				// Persistent-state recovery: the node resumes as it was.
				if e.halted[u] {
					continue // it had stopped for good before the crash
				}
				if e.awake[u] {
					sh.numRunning++
					fst.revived = append(fst.revived, u)
				} else if wr := e.wakeRound(u); wr > 0 && wr <= t {
					// Its spontaneous wake round passed while it was down.
					sh.wake = append(sh.wake, u)
				}
				continue
			}
			// Reset-state recovery / churn join: a fresh process appears and
			// Starts this tick as a spontaneous waker. New, never Renew: what
			// the crashed incarnation sent may still be in flight, and a
			// renewed process would write over the records its receivers are
			// about to read.
			e.procs[u] = e.proto.New(e.ctxs[u].info)
			e.status[u] = Undecided
			e.halted[u] = false
			e.awake[u] = false
			e.changed[u] = false
			e.ctxs[u].rngReady, e.ctxs[u].steps = false, 0
			e.fRejoined[u] = true
			sh.wake = append(sh.wake, u)
		}
	}
}
