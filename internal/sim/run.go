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

// DefaultBitCap returns the default CONGEST per-message budget for an
// n-node network: 32·⌈log2(n+2)⌉ + 64 bits, a generous Θ(log n).
func DefaultBitCap(n int) int {
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

// Runner executes runs on one fixed graph, reusing the engine state that
// depends only on the topology (the graph's CSR and reverse-port arrays,
// borrowed rather than rebuilt) and the per-node scratch buffers (outbox
// arenas, inboxes, status vectors, RNGs) across runs. For sweep workloads
// this removes almost all per-trial allocation; a Runner is NOT safe for
// concurrent use — give each worker its own. The graph's port numbering
// must not change (no ShufflePorts) while the Runner is in use.
type Runner struct {
	g *graph.Graph

	// Flat per-(node, port) tables, indexed by off[u]+p. off/nbr/portBack
	// are the graph's own CSR arrays (graph.CSR, graph.PortBacks) — purely
	// topological, built once with the graph. sendCnt (Runner-owned)
	// carries the per-round per-port send counts.
	off      []int32
	nbr      []int32
	portBack []int32
	sendCnt  []int32

	// Reusable per-node scratch, reset at the start of every run.
	out     [][]outMsg
	inbox   [][]Message
	status  []Status
	halted  []bool
	awake   []bool
	changed []bool
	nodeErr []error
	procs   []Process
	ctxs    []Context
	rngs    []*rand.Rand

	// Reusable flat per-node / per-(node,port) rows of the event engine.
	linkSeq     []int32
	wakeAt      []int
	idle        []int
	haltCounted []bool

	// Reusable shard state (timing wheels, scratch lists, fault heaps,
	// mailboxes); rebuilt only when the effective shard count changes.
	shards []engineShard

	// Reusable global fault-membership vectors, built on the first
	// faulty run.
	fAlive    []bool
	fRejoined []bool

	// Lazily-built validation/instrument scratch, recycled across runs.
	idSeen map[int64]struct{}
	watch  map[[2]int]bool

	// eng is the engine shell reused across runs (its pointers are re-wired
	// per run; no allocation).
	eng engine
}

// NewRunner validates the graph and precomputes the reusable engine state.
func NewRunner(g *graph.Graph) (*Runner, error) {
	if g == nil || g.N() == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrConfig)
	}
	n := g.N()
	off, nbr := g.CSR()
	r := &Runner{
		g:        g,
		off:      off,
		nbr:      nbr,
		portBack: g.PortBacks(),
		out:      make([][]outMsg, n),
		inbox:    make([][]Message, n),
		status:   make([]Status, n),
		halted:   make([]bool, n),
		awake:    make([]bool, n),
		changed:  make([]bool, n),
		nodeErr:  make([]error, n),
		procs:    make([]Process, n),
		ctxs:     make([]Context, n),
		rngs:     make([]*rand.Rand, n),
	}
	// The graph maintains its reverse-port table through construction and
	// ShufflePorts, so the old O(Σ deg²) PortTo validation scan is gone —
	// NewRunner is O(n) for any density.
	r.sendCnt = make([]int32, len(nbr))
	r.carveRows()
	r.linkSeq = make([]int32, len(nbr))
	r.wakeAt = make([]int, n)
	r.idle = make([]int, n)
	r.haltCounted = make([]bool, n)
	return r, nil
}

// carveRows homes every node's inbox and outbox row in one slab each, in
// node order, with room for min(degree, slabRowCap) messages (arena.go).
func (r *Runner) carveRows() {
	total := 0
	for u := range r.out {
		total += min(int(r.off[u+1]-r.off[u]), slabRowCap)
	}
	in, out := make([]Message, total), make([]outMsg, total)
	at := 0
	for u := range r.out {
		end := at + min(int(r.off[u+1]-r.off[u]), slabRowCap)
		r.inbox[u], r.out[u] = in[at:at:end], out[at:at:end]
		at = end
	}
}

// ensureShards (re)builds the Runner's shard array for an effective
// shard count of S, partitioning the nodes into contiguous ranges of
// ⌈n/S⌉. Rebuilt only when S changes between runs; each shard's wheels
// and scratch persist across runs of the same count.
func (r *Runner) ensureShards(S int) {
	if len(r.shards) == S {
		return
	}
	n := r.g.N()
	size := (n + S - 1) / S
	r.shards = make([]engineShard, S)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.id = i
		sh.lo = i * size
		sh.hi = sh.lo + size
		if sh.hi > n {
			sh.hi = n
		}
		sh.wheel = newTimingWheel()
		sh.mail = make([][]shardMsg, S)
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
// *out and recycling out's slices and maps — a sweep driver that reuses
// one Result across trials keeps steady-state allocation at zero. On
// error *out holds unspecified intermediate state. The filled Result is
// owned by the caller (it does not alias Runner state), but is
// overwritten by the next RunInto with the same out.
func (r *Runner) RunInto(cfg Config, p Protocol, out *Result) error {
	g := r.g
	if cfg.Graph != nil && cfg.Graph != g {
		return fmt.Errorf("%w: Runner bound to a different graph", ErrConfig)
	}
	cfg.Graph = g
	n := g.N()
	if cfg.IDs != nil {
		if len(cfg.IDs) != n {
			return fmt.Errorf("%w: len(IDs)=%d want %d", ErrConfig, len(cfg.IDs), n)
		}
		r.idSeen = recycled(r.idSeen, n)
		for _, id := range cfg.IDs {
			if _, dup := r.idSeen[id]; dup {
				return fmt.Errorf("%w: duplicate ID %d", ErrConfig, id)
			}
			r.idSeen[id] = struct{}{}
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
	bitCap := cfg.BitCap
	if bitCap <= 0 {
		bitCap = DefaultBitCap(n)
	}
	sendCap := cfg.PortSendCap
	if sendCap <= 0 {
		if m.Mode == LOCAL {
			sendCap = 0 // unlimited
		} else {
			sendCap = 8
		}
	}

	// Reset the result shell, recycling its slices and maps. Crashed is
	// reset to nil — the fault-free contract — with its capacity parked
	// aside for faulty runs to reuse.
	crashedScratch := out.Crashed[:0]
	*out = Result{
		Statuses:      out.Statuses[:0],
		Leaders:       out.Leaders[:0],
		FirstCrossing: out.FirstCrossing,
		PerEdge:       out.PerEdge,
	}

	// Reset the reusable scratch and wire it into the engine shell.
	e := &r.eng
	*e = engine{
		cfg: cfg, g: g, bitCap: bitCap, sendCap: sendCap,
		off:      r.off,
		nbr:      r.nbr,
		portBack: r.portBack,
		sendCnt:  r.sendCnt,
		out:      r.out,
		inbox:    r.inbox,
		status:   r.status,
		halted:   r.halted,
		awake:    r.awake,
		changed:  r.changed,
		nodeErr:  r.nodeErr,
		procs:    r.procs,
		ctxs:     r.ctxs,
		rngs:     r.rngs,
		res:      out,

		async:       m.Mode == ASYNC,
		delay:       m.Delay,
		linkSeq:     r.linkSeq,
		wakeAt:      r.wakeAt,
		idle:        r.idle,
		hints:       m.Mode != ASYNC && honorIdleHints,
		haltCounted: r.haltCounted,
		maxTick:     maxRounds,
	}
	for i := range r.linkSeq {
		r.linkSeq[i] = 0
	}
	for i := range r.wakeAt {
		r.wakeAt[i] = 0
		r.idle[i] = 0
	}
	for i := range r.haltCounted {
		r.haltCounted[i] = false
	}
	r.ensureShards(shardCount)
	e.shards = r.shards
	e.shardSize = (n + shardCount - 1) / shardCount
	for i := range r.shards {
		r.shards[i].resetRun()
	}
	if m.Faults != nil {
		e.fsched = m.Faults
		e.proto = p
		if r.fAlive == nil {
			r.fAlive = make([]bool, n)
			r.fRejoined = make([]bool, n)
		}
		e.fAlive, e.fRejoined = r.fAlive, r.fRejoined
		for u := 0; u < n; u++ {
			r.fAlive[u] = true
			r.fRejoined[u] = false
		}
		for i := range r.shards {
			sh := &r.shards[i]
			if sh.faultScratch == nil {
				sh.faultScratch = new(faultState)
			}
			sh.faultScratch.reset(m.Faults, cfg.Seed, sh.lo, sh.hi, maxRounds)
			sh.faults = sh.faultScratch
		}
	}
	for i := range r.sendCnt {
		r.sendCnt[i] = 0
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
		var id int64
		hasID := false
		if cfg.IDs != nil {
			id = cfg.IDs[u]
			hasID = true
		}
		info := NodeInfo{ID: id, HasID: hasID, Degree: g.Degree(u), Know: cfg.Know}
		if recycler != nil {
			e.procs[u] = recycler.Renew(e.procs[u], info)
		} else {
			e.procs[u] = p.New(info)
		}
		// The RNG is built and seeded lazily on the node's first Rand()
		// call (see Context.Rand); r.rngs[u] is nil until then.
		e.ctxs[u] = Context{eng: e, node: u, info: info, rng: r.rngs[u]}
	}
	if len(cfg.WatchEdges) > 0 {
		r.watch = recycled(r.watch, len(cfg.WatchEdges))
		e.watch = r.watch
		out.FirstCrossing = recycled(out.FirstCrossing, len(cfg.WatchEdges))
		for _, w := range cfg.WatchEdges {
			e.watch[normPair(w[0], w[1])] = true
		}
	} else {
		out.FirstCrossing = nil
	}
	if cfg.CountPerEdge {
		out.PerEdge = recycled(out.PerEdge, 0)
	} else {
		out.PerEdge = nil
	}
	// Wire the event engine's instrument maps: a single shard writes the
	// Result's maps directly; multiple shards fill per-shard scratch maps
	// (merged after the run — crossing ticks by minimum, per-edge counts
	// by sum, both independent of the shard layout).
	if e.watch != nil || cfg.CountPerEdge {
		single := len(e.shards) == 1
		for i := range e.shards {
			sh := &e.shards[i]
			if e.watch != nil {
				if single {
					sh.fc = out.FirstCrossing
				} else {
					sh.fcScratch = recycled(sh.fcScratch, 0)
					sh.fc = sh.fcScratch
				}
			}
			if cfg.CountPerEdge {
				if single {
					sh.pe = out.PerEdge
				} else {
					sh.peScratch = recycled(sh.peScratch, 0)
					sh.pe = sh.peScratch
				}
			}
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
	// Fold the per-shard accounting into the Result. Sums, maxes and map
	// merges are all independent of shard order; single-shard runs alias
	// the instrument maps directly, so only the scalars fold.
	singleShard := len(e.shards) == 1
	for i := range e.shards {
		sh := &e.shards[i]
		out.Messages += sh.msgs
		out.Bits += sh.bits
		out.Dropped += sh.dropped
		out.Crashes += sh.crashes
		out.Recoveries += sh.recoveries
		if sh.maxMsgBits > out.MaxMsgBits {
			out.MaxMsgBits = sh.maxMsgBits
		}
		if sh.lastActive > out.LastActive {
			out.LastActive = sh.lastActive
		}
		if !singleShard {
			for k, v := range sh.fc {
				if cur, ok := out.FirstCrossing[k]; !ok || v < cur {
					out.FirstCrossing[k] = v
				}
			}
			for k, v := range sh.pe {
				out.PerEdge[k] += v
			}
		}
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
