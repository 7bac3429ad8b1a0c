package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"

	"ule/internal/graph"
)

// DefaultMaxRounds bounds runs whose protocols fail to terminate.
const DefaultMaxRounds = 1 << 20

// The CONGEST message budget is a constant of the model, not a setting:
// every message outside LOCAL carries at most defaultBitCap(n) bits, and
// a node sends at most portSendCap messages through one port in one
// round. A constant number of Θ(log n)-bit messages per edge per round is
// the usual constant-factor relaxation of CONGEST; every message still
// counts individually toward the message complexity. Breaking either
// bound fails the run (ErrBitCap, ErrDoubleSend).
const portSendCap = 8

// defaultBitCap returns the CONGEST per-message budget for an n-node
// network: 32·⌈log2(n+2)⌉ + 64 bits, a generous Θ(log n).
func defaultBitCap(n int) int {
	return 32*bits.Len(uint(n+2)) + 64
}

// Run executes protocol p on the configured network and returns the run
// summary. It returns an error for invalid configurations and for model
// violations committed by the protocol (double sends, oversized CONGEST
// messages).
//
// Run builds fresh engine state per call; batch drivers running many
// trials on one graph should allocate a Runner once and reuse it.
func Run(cfg Config, p Protocol) (*Result, error) {
	r, err := NewRunner(cfg.Graph)
	if err != nil {
		return nil, err
	}
	return r.Run(cfg, p)
}

// Runner executes runs on one graph at a time, reusing the engine state
// that depends only on the topology (the graph's CSR and reverse-port
// arrays, borrowed rather than rebuilt) and the per-node scratch buffers
// (outbox arenas, inboxes, status vectors, RNGs) across runs; Rebind moves
// that storage to another graph. For sweep workloads this removes almost
// all per-trial allocation; a Runner is NOT safe for concurrent use — give
// each worker its own. The graph's port numbering must not change (no
// ShufflePorts) while the Runner is bound to it.
//
// A Runner is its engine: what a run leaves behind for the next one is
// the engine's buffers, and everything else the engine holds is rebuilt
// from zero by RunInto.
type Runner struct {
	eng engine
}

// buffers is the engine state that outlives a run: the graph, its
// borrowed tables, and every row, shard and map the engine builds once
// and empties per run. engine embeds it by value, so the step, flush and
// arrival loops read these fields as the engine's own.
type buffers struct {
	g *graph.Graph

	// Flat per-(node, port) tables, indexed by off[u]+p (see arena.go).
	// off and nbr are the graph's CSR arrays and portBack its reverse-port
	// table, borrowed via graph.CSR()/PortBacks() so the delivery fast
	// path resolves neighbors and return ports with single array loads —
	// no method call, no per-node slice header. linkSeq numbers each
	// link's messages, and is made only for the runs that read it: ASYNC
	// and link drops. linkMix holds each link's delay-hash prefix
	// (linkDelay), mixed on the link's first send; it is made only for
	// ASYNC runs under a built-in schedule. The per-port send cap is
	// counted per shard (engineShard.sendCnt), over the node being
	// stepped, and maxDeg is the length those counters need.
	off      []int32
	nbr      []int32
	portBack []int32
	linkSeq  []int32
	linkMix  []uint64
	maxDeg   int

	// out[u] is u's outbox row: this round's sends in send order, with
	// Bits() cached (see arena.go). inbox[u] holds the messages delivered
	// to u this round — in the synchronous modes, from the flush of the
	// round before on. Both are carved out of the two slabs (carveRows).
	out     [][]outMsg
	inbox   [][]Message
	outSlab []outMsg
	inSlab  []Message
	// bcast[u] is u's broadcast slot (arena.go), made and cleared only
	// for the runs that keep slots: the synchronous ones without link
	// drops.
	bcast []bcastSlot

	// Per-node rows shared by the shards — each shard writes only its own
	// nodes' slots, so no synchronization is needed.
	status  []Status
	halted  []bool
	awake   []bool
	changed []bool
	nodeErr []error
	procs   []Process
	ctxs    []Context
	rngs    []*rand.Rand // lazily-built per-node generators
	idle    []int        // round a parked node idles until (0 = not parked)

	// shards holds the per-range wheels, scratch lists, fault heaps and
	// mailboxes (shard.go), rebuilt when the effective shard count or the
	// node count changes.
	shards []engineShard

	// Built on the first run that needs them: the fault-membership
	// vectors and the watched-edge set, which the engine's fAlive,
	// fRejoined and watch point at on the runs that use them, and the
	// duplicate filter of ID validation.
	aliveBuf    []bool
	rejoinedBuf []bool
	watchBuf    map[[2]int]bool
	idSeen      graph.IDSet
}

// NewRunner validates the graph and precomputes the reusable engine state.
func NewRunner(g *graph.Graph) (*Runner, error) {
	r := new(Runner)
	if err := r.Rebind(g); err != nil {
		return nil, err
	}
	return r, nil
}

// Rebind re-targets the Runner at g, keeping what of its storage g can
// use: it borrows g's tables, re-slices every per-node and per-port row
// (growing it only for a larger graph) and re-carves the inbox and outbox
// rows out of the slabs it keeps, cleared so that they pin no payload.
// When the node count changes the shards and the fault vectors are
// rebuilt on the next run, and the processes of nodes past g's last are
// released. A buffer g needs less than an eighth of is reallocated at g's
// size, so a Runner that once ran a large graph does not pin its storage.
// A run after Rebind(g) returns exactly what a NewRunner(g)'s would: the
// processes kept are renewed or replaced like a warm Runner's.
func (r *Runner) Rebind(g *graph.Graph) error {
	if g == nil || g.N() == 0 {
		return fmt.Errorf("%w: empty graph", ErrConfig)
	}
	b := &r.eng.buffers
	if g == b.g {
		return nil
	}
	n := g.N()
	if n != len(b.status) {
		if 8*n < len(b.status) {
			b.idSeen = graph.IDSet{}
		}
		b.shards, b.aliveBuf, b.rejoinedBuf = nil, nil, nil
	}
	// The graph maintains its reverse-port table through construction and
	// ShufflePorts, so a Rebind is O(n + m) for any density.
	off, nbr := g.CSR()
	b.g, b.off, b.nbr, b.portBack = g, off, nbr, g.PortBacks()
	b.maxDeg = 0
	for u := range n {
		b.maxDeg = max(b.maxDeg, int(off[u+1]-off[u]))
	}
	if 8*len(nbr) < cap(b.linkSeq) {
		b.linkSeq, b.linkMix = nil, nil // linkMix is made only beside linkSeq
	}
	if 8*n < cap(b.bcast) {
		b.bcast = nil
	}
	b.out = resized(b.out, n)
	b.inbox = resized(b.inbox, n)
	b.status = resized(b.status, n)
	b.halted = resized(b.halted, n)
	b.awake = resized(b.awake, n)
	b.changed = resized(b.changed, n)
	b.nodeErr = resized(b.nodeErr, n)
	b.procs = resized(b.procs, n)
	b.ctxs = resized(b.ctxs, n)
	b.rngs = resized(b.rngs, n)
	b.idle = resized(b.idle, n)
	b.carveRows()
	return nil
}

// resized returns s at length n: on its own array, with the slots past n
// cleared so that they pin nothing, when that array holds n and n is at
// least an eighth of it; on a new array otherwise.
func resized[T any](s []T, n int) []T {
	if c := cap(s); n <= c && 8*n >= c {
		clear(s[n:c])
		return s[:n]
	}
	return make([]T, n)
}

// carveRows homes every node's inbox and outbox row in the two slabs, in
// node order, with room for min(degree, slabRowCap) messages (arena.go).
// The slabs are re-sliced like the per-node rows and cleared, so no row
// starts with a payload a run before left in it.
func (b *buffers) carveRows() {
	total := 0
	for u := range b.out {
		total += min(int(b.off[u+1]-b.off[u]), slabRowCap)
	}
	b.inSlab, b.outSlab = resized(b.inSlab, total), resized(b.outSlab, total)
	clear(b.inSlab)
	clear(b.outSlab)
	at := 0
	for u := range b.out {
		end := at + min(int(b.off[u+1]-b.off[u]), slabRowCap)
		b.inbox[u], b.out[u] = b.inSlab[at:at:end], b.outSlab[at:at:end]
		at = end
	}
}

// ensureShards (re)builds the shard array for an effective shard count
// of S, partitioning the nodes into contiguous ranges of ⌈n/S⌉. Rebuilt
// only when S changes between runs or a Rebind changed n; each shard's
// wheels and scratch persist across runs of the same layout.
func (b *buffers) ensureShards(S int) {
	if len(b.shards) == S {
		return
	}
	n := b.g.N()
	size := (n + S - 1) / S
	b.shards = make([]engineShard, S)
	for i := range b.shards {
		sh := &b.shards[i]
		sh.id = i
		sh.lo = i * size
		sh.hi = min(sh.lo+size, n)
		sh.wheel = newTimingWheel()
		sh.mail = make([][]mailRef, S)
	}
}

// Run executes one protocol run. cfg.Graph must be nil or the Runner's own
// graph. The returned Result does not alias the Runner's reusable state.
func (r *Runner) Run(cfg Config, p Protocol) (*Result, error) {
	res := new(Result)
	if err := r.RunInto(cfg, p, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto executes one protocol run like Run, writing the summary into
// *out and recycling out's slices — a sweep driver that reuses one Result
// across trials keeps steady-state allocation at zero. On error *out
// holds unspecified intermediate state. The filled Result is owned by the
// caller (it does not alias Runner state), but is overwritten by the next
// RunInto with the same out.
func (r *Runner) RunInto(cfg Config, p Protocol, out *Result) error {
	e := &r.eng
	g := e.g
	if cfg.Graph != nil && cfg.Graph != g {
		return fmt.Errorf("%w: Runner bound to a different graph", ErrConfig)
	}
	cfg.Graph = g
	n := g.N()
	if cfg.IDs != nil {
		if len(cfg.IDs) != n {
			return fmt.Errorf("%w: len(IDs)=%d want %d", ErrConfig, len(cfg.IDs), n)
		}
		e.idSeen.Reset(n)
		for _, id := range cfg.IDs {
			if !e.idSeen.Add(id) {
				return fmt.Errorf("%w: duplicate ID %d", ErrConfig, id)
			}
		}
	}
	if cfg.Wake != nil && len(cfg.Wake) != n {
		return fmt.Errorf("%w: len(Wake)=%d want %d", ErrConfig, len(cfg.Wake), n)
	}
	// The model's axis constraints (ModelSpec) are enforced here, once, for
	// every layer above.
	m := &cfg.Model
	if m.Mode == 0 {
		m.Mode = CONGEST
	}
	if m.Mode < CONGEST || m.Mode > ASYNC {
		return fmt.Errorf("%w: unknown mode %d", ErrConfig, int(m.Mode))
	}
	if m.Delay != nil && m.Mode != ASYNC {
		return fmt.Errorf("%w: delay schedules require ASYNC mode", ErrConfig)
	}
	if m.Mode == ASYNC && m.Delay == nil {
		m.Delay = UnitDelay()
	}
	procs := runtime.GOMAXPROCS(0)
	shardCount := EffectiveShards(cfg.Shards, n, procs)
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = DefaultMaxRounds
	}
	sendCap := portSendCap
	if m.Mode == LOCAL {
		sendCap = 0 // unlimited
	}

	// Reset the result shell, recycling its slices. Crashed is reset to
	// nil — the fault-free contract — with its capacity parked aside for
	// faulty runs to reuse.
	crashedScratch := out.Crashed[:0]
	*out = Result{Statuses: out.Statuses[:0], Leaders: out.Leaders[:0]}

	// Reset the engine by construction: every field but the buffers
	// starts the run at zero.
	*e = engine{
		buffers: e.buffers,
		cfg:     cfg, bitCap: defaultBitCap(n), sendCap: sendCap, res: out,
		async:   m.Mode == ASYNC,
		delay:   m.Delay,
		hints:   m.Mode != ASYNC && honorIdleHints,
		maxTick: maxRounds,
	}
	clear(e.idle)
	if e.linkDelay, _ = m.Delay.(linkDelay); e.linkDelay != nil && len(e.linkMix) != len(e.nbr) {
		e.linkMix = resized(e.linkMix, len(e.nbr))
	}
	e.ensureShards(shardCount)
	e.shardSize = (n + shardCount - 1) / shardCount
	for i := range e.shards {
		e.shards[i].resetRun(e.maxDeg)
	}
	if m.Faults != nil {
		e.fsched = m.Faults
		e.proto = p
		if e.aliveBuf == nil {
			e.aliveBuf = make([]bool, n)
			e.rejoinedBuf = make([]bool, n)
		}
		e.fAlive, e.fRejoined = e.aliveBuf, e.rejoinedBuf
		for u := range e.fAlive {
			e.fAlive[u] = true
		}
		clear(e.fRejoined)
		for i := range e.shards {
			sh := &e.shards[i]
			sh.faults = &sh.faultBuf
			sh.faults.reset(m.Faults, cfg.Seed, sh.lo, sh.hi, maxRounds)
		}
	}
	if e.async || (e.fsched != nil && e.fsched.dropP > 0) {
		e.linkSeq = resized(e.linkSeq, len(e.nbr))
		clear(e.linkSeq)
	} else {
		e.slots = true
		e.bcast = resized(e.bcast, n)
		clear(e.bcast)
	}
	// A warm Runner recycles: procs[u] is still what node u ran last.
	recycler, _ := p.(Recycler)
	for u := 0; u < n; u++ {
		e.out[u] = e.out[u][:0]
		e.inbox[u] = e.inbox[u][:0]
		e.status[u] = Undecided
		e.halted[u] = false
		e.awake[u] = false
		e.changed[u] = false
		e.nodeErr[u] = nil
		info := NodeInfo{Degree: g.Degree(u), Know: cfg.Know}
		if cfg.IDs != nil {
			info.ID, info.HasID = cfg.IDs[u], true
		}
		if recycler != nil {
			e.procs[u] = recycler.Renew(e.procs[u], info)
		} else {
			e.procs[u] = p.New(info)
		}
		// The RNG is built and seeded lazily on the node's first Rand()
		// call (see Context.Rand); rngs[u] is nil until then.
		e.ctxs[u] = Context{eng: e, sh: &e.shards[u/e.shardSize], node: u, info: info, rng: e.rngs[u]}
	}
	// The crossing instrument: every shard reads the one watched set.
	if len(cfg.WatchEdges) > 0 {
		e.watchBuf = recycled(e.watchBuf, len(cfg.WatchEdges))
		e.watch = e.watchBuf
		for _, w := range cfg.WatchEdges {
			e.watch[normPair(w[0], w[1])] = true
		}
	}

	// With several shards and several cores, one persistent pool drives
	// the ticks that carry enough work (runTick) through fixed per-run
	// closures, so a dispatch allocates nothing.
	if workers := min(len(e.shards), procs); workers > 1 {
		e.shardPool = newShardPool(workers)
		e.tickFn = func(i int) { e.tickShard(&e.shards[i], e.round) }
		e.drainFn = func(i int) { e.drainMail(&e.shards[i]) }
		defer func() {
			e.shardPool.close()
			e.shardPool, e.tickFn, e.drainFn = nil, nil, nil
		}()
	}

	e.loopEvent()
	if e.err != nil {
		return e.err
	}
	for i := range e.shards {
		e.shards[i].fold(out)
	}
	out.Statuses = append(out.Statuses[:0], e.status...)
	for u, s := range e.status {
		if s == Leader {
			out.Leaders = append(out.Leaders, u)
		}
	}
	out.Halted = true
	for _, h := range e.halted {
		if !h {
			out.Halted = false
			break
		}
	}
	if e.fAlive != nil {
		out.Crashed = crashedScratch
		for _, a := range e.fAlive {
			out.Crashed = append(out.Crashed, !a)
		}
	}
	return nil
}

// recycled returns m emptied for reuse, or a fresh map sized for hint
// entries when there is none yet.
func recycled[K comparable, V any](m map[K]V, hint int) map[K]V {
	if m == nil {
		return make(map[K]V, hint)
	}
	clear(m)
	return m
}

func normPair(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}
