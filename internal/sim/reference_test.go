package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// runReference is the oracle the event engine is tested against: the
// synchronous model of the paper's §2 written down round by round —
// deliver what was sent last round, wake, step every awake node that has
// not halted, look for anything that could still happen — at O(n) a round.
//
// It shares with the engine exactly what a protocol talks to: Context,
// and through it the send and decide rules (port, cap and bit-budget
// checks, the per-node error and status slots) and the node coins; the
// engine value below is only the record those read and write. Everything
// else is this file's own and allocated per call: no wheel, shard, mailbox,
// recycled row or arena, no fault plumbing, no idle hints (hints stays
// false, so IdleUntil does nothing and every awake node is stepped every
// round). ASYNC, delay schedules and faults are not the model written
// here and are refused.
func runReference(cfg Config, p Protocol) (*Result, error) {
	g, mode := cfg.Graph, cfg.Model.Mode
	if mode == 0 {
		mode = CONGEST
	}
	if (mode != CONGEST && mode != LOCAL) || cfg.Model.Delay != nil || cfg.Model.Faults != nil {
		return nil, fmt.Errorf("%w: the reference interpreter runs the fault-free synchronous models only", ErrConfig)
	}
	cfg.Model.Mode = mode
	n := g.N()
	maxRounds, sendCap := cfg.MaxRounds, 0
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	if mode == CONGEST {
		sendCap = portSendCap
	}
	off, _ := g.CSR()
	e := &engine{
		cfg: cfg, bitCap: defaultBitCap(n), sendCap: sendCap,
		buffers: buffers{
			off: off, out: make([][]outMsg, n), status: make([]Status, n), halted: make([]bool, n),
			changed: make([]bool, n), nodeErr: make([]error, n), rngs: make([]*rand.Rand, n),
			// One shard, whose counters hold a node's sends of the round
			// while the node is called (loadSends, clearSends): every
			// node's Context.Shard is 0.
			shards: []engineShard{{sendCnt: make([]int32, n)}},
		},
	}
	sh := &e.shards[0]
	procs, ctxs, awake := make([]Process, n), make([]Context, n), make([]bool, n)
	for u := range procs {
		info := NodeInfo{Degree: g.Degree(u), Know: cfg.Know}
		if cfg.IDs != nil {
			info.ID, info.HasID = cfg.IDs[u], true
		}
		procs[u] = p.New(info)
		ctxs[u] = Context{eng: e, sh: sh, node: u, info: info}
	}

	res := new(Result)
	watch := make(map[[2]int]bool)
	for _, w := range cfg.WatchEdges {
		watch[normPair(w[0], w[1])] = true
	}
	crossed := len(watch) == 0
	res.Rounds, res.HitRoundCap = maxRounds, true
	for e.round = 1; e.round <= maxRounds; e.round++ {
		r := e.round
		// Deliver last round's sends, senders in node order, and account.
		inbox := make([][]Message, n)
		for u := 0; u < n; u++ {
			for _, m := range e.out[u] {
				port := int(m.port)
				v := g.Neighbor(u, port)
				inbox[v] = append(inbox[v], Message{Port: g.PortBack(u, port), Payload: m.pl})
				res.Messages++
				res.Bits += int64(m.bits)
				res.LastActive = r
				if watch[normPair(u, v)] && !crossed {
					res.FirstCrossing = r
					crossed = true
				}
			}
			e.out[u] = nil
		}
		if !crossed {
			res.MessagesBeforeCrossing = res.Messages
		}
		// A node reads its inbox by ascending port, and within a port in
		// the order its neighbor sent.
		for _, in := range inbox {
			sort.SliceStable(in, func(i, j int) bool { return in[i].Port < in[j].Port })
		}

		// Wake: by schedule from the node's wake round on, or by a message.
		wakeAhead := false
		for u := 0; u < n; u++ {
			if awake[u] {
				continue
			}
			wr := 1
			if cfg.Wake != nil {
				wr = cfg.Wake[u]
			}
			if (wr > 0 && wr <= r) || len(inbox[u]) > 0 {
				awake[u] = true
				ctxs[u].spontaneous = len(inbox[u]) == 0
				procs[u].Start(&ctxs[u])
				sh.clearSends(e.out[u])
			} else if wr > r && wr <= maxRounds {
				wakeAhead = true
			}
		}
		// Step every awake node that has not halted. Its sends of the
		// round, Start's included, count against one per-port cap.
		for u := 0; u < n; u++ {
			if awake[u] && !e.halted[u] {
				sh.loadSends(e.out[u])
				procs[u].Round(&ctxs[u], inbox[u])
				sh.clearSends(e.out[u])
			}
		}
		// A model violation ends the run; of several in one round the
		// lowest-numbered node's is reported.
		for u := 0; u < n; u++ {
			if e.nodeErr[u] != nil {
				return nil, e.nodeErr[u]
			}
			if e.changed[u] {
				e.changed[u] = false
				res.LastActive = r
			}
		}

		// Over when nothing is in flight and either nobody is running and
		// no scheduled wake-up is still ahead (all halted, or only sleepers
		// nothing will rouse) or — StopWhenQuiet — everyone has decided.
		inFlight, running, undecided := false, false, false
		for u := 0; u < n; u++ {
			inFlight = inFlight || len(e.out[u]) > 0
			running = running || (awake[u] && !e.halted[u])
			undecided = undecided || e.status[u] == Undecided
		}
		if !inFlight && ((!running && !wakeAhead) || (cfg.StopWhenQuiet && !undecided)) {
			res.Rounds, res.HitRoundCap = r, false
			break
		}
	}

	res.Statuses, res.Halted = e.status, true
	for u, s := range e.status {
		if s == Leader {
			res.Leaders = append(res.Leaders, u)
		}
		res.Halted = res.Halted && e.halted[u]
	}
	return res, nil
}
