// Allocation-budget regression tests for the zero-allocation messaging
// fast path (docs/PERFORMANCE.md): a warm Runner on the event engine must
// execute steady-state rounds with single-digit allocations per round.
// The budgets are deliberately loose multiples of the measured values so
// that the tests flag structural regressions (a reintroduced per-send
// boxing, a reflect sort, per-round map churn), not noise.
package ule

import (
	"math/rand"
	"runtime"
	"testing"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// allocsPerRound measures the average allocations per simulated round of
// one warm, deterministic run repeated via testing.AllocsPerRun.
func allocsPerRound(t *testing.T, warmup int, run func() int) float64 {
	t.Helper()
	rounds := run()
	if rounds <= 0 {
		t.Fatal("run executed no rounds")
	}
	for i := 1; i < warmup; i++ {
		if r := run(); r != rounds {
			t.Fatalf("warm-up run not deterministic: %d rounds, then %d", rounds, r)
		}
	}
	allocs := testing.AllocsPerRun(5, func() { run() })
	return allocs / float64(rounds)
}

// TestAllocBudgetWaveRing pins the engine-only budget: the wave protocol
// allocates nothing itself after Start, so everything measured here is
// engine overhead (per-run process construction amortized over the
// rounds, plus the steady-state cost of ticks, deliveries and merges).
func TestAllocBudgetWaveRing(t *testing.T) {
	g := graph.Ring(1024)
	wake := adversarialWake(g.N())
	r, err := sim.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	run := func() int {
		if err := r.RunInto(sim.Config{Seed: 7, Wake: wake}, waveProto{}, &res); err != nil {
			t.Fatal(err)
		}
		if !res.Halted || res.Messages != int64(g.N()+1) {
			t.Fatalf("wave broken: halted=%v messages=%d", res.Halted, res.Messages)
		}
		return res.Rounds
	}
	if got := allocsPerRound(t, 2, run); got >= 10 {
		t.Errorf("wave on ring:1024: %.2f allocs/round, want single digits", got)
	}
}

// TestAllocBudgetLeastelRing pins the full-protocol budget: leastel keeps
// every node a candidate, so the measurement covers the flood machinery
// (wire boxes read in place and kept by their receivers, the drip queue,
// the least-element
// list) on top of the engine. Steady-state traffic allocates nothing, and
// neither does a run's set-up: the warm Runner renews the processes of the
// last run (sim.Recycler) with their queues, lists and sort scratch, so
// what is left is the engine's own per-run handful.
func TestAllocBudgetLeastelRing(t *testing.T) {
	g := graph.Ring(512)
	wake := adversarialWake(g.N())
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3)))
	prep, err := core.Prepare(g, "leastel")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	run := func() int {
		err := prep.RunInto(core.RunOpts{Seed: 7, IDs: ids, Wake: wake, MaxRounds: 1 << 15}, &res)
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatal("election failed")
		}
		return res.Rounds
	}
	if got := allocsPerRound(t, 2, run); got >= 0.5 {
		t.Errorf("leastel on ring:512: %.3f allocs/round, budget 0.5 (0.002 measured; one allocation per node and run is 0.9)", got)
	}
}

// TestAllocBudgetLeastelFaultyRing pins the fault-injected budget: the
// fault adversary rides the same zero-allocation discipline as the rest
// of the fast path — the Runner owns one reusable faultState, the crash
// heap and scratch slices are recycled across runs, and Result.Crashed
// parks its capacity between runs. The budget is the fault-free one
// scaled to this run's 8192 rounds: an allocation per node, per crash or
// per drop would blow it immediately.
func TestAllocBudgetLeastelFaultyRing(t *testing.T) {
	g := graph.Ring(512)
	wake := adversarialWake(g.N())
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3)))
	prep, err := core.Prepare(g, "leastel")
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.ParseModel("crash:0.1+drop:0.02")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	run := func() int {
		err := prep.RunInto(core.RunOpts{
			Seed: 7, IDs: ids, Wake: wake, MaxRounds: 1 << 13, Model: m,
		}, &res)
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes == 0 || res.Dropped == 0 {
			t.Fatalf("fault adversary idle: crashes=%d dropped=%d", res.Crashes, res.Dropped)
		}
		return res.Rounds
	}
	if got := allocsPerRound(t, 2, run); got >= 0.03 {
		t.Errorf("faulty leastel on ring:512: %.4f allocs/round, budget 0.03 (0.001 measured; one allocation per node and run is 0.06)", got)
	}
}

// TestAllocBudgetLeastelSharded pins the sharded warm path to the same
// per-round budget as the single-shard engine: shard scratch (wheels,
// mailboxes, fault heaps) lives on the Runner and is
// recycled across runs, and the tick/drain dispatch closures are built
// once per run — so splitting the adversarial leastel run across 4
// shards must not add a single steady-state allocation per round.
func TestAllocBudgetLeastelSharded(t *testing.T) {
	g := graph.Ring(512)
	wake := adversarialWake(g.N())
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3)))
	prep, err := core.Prepare(g, "leastel")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	run := func() int {
		err := prep.RunInto(core.RunOpts{
			Seed: 7, IDs: ids, Wake: wake, MaxRounds: 1 << 15, Shards: 4,
		}, &res)
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatal("election failed")
		}
		return res.Rounds
	}
	if got := allocsPerRound(t, 2, run); got >= 0.5 {
		t.Errorf("sharded leastel on ring:512: %.3f allocs/round, budget 0.5 (same as single-shard)", got)
	}
}

// TestAllocBudgetLeastelAutoSharded pins the path a large graph takes by
// default: leastel on torus:128x128 at Shards 0 on two cores runs on two
// shards, its busy ticks on the pool. Against the same warm election
// forced onto one shard it may allocate the per-run pool start (a
// goroutine, a channel, two closures) and nothing per round: the
// difference must stay below one allocation per round. (Both sides run
// warm, on renewed processes, so what the election itself allocates — a
// queue that outgrows its last run — is small and the same on both.
// testing.AllocsPerRun pins GOMAXPROCS to 1, where nothing is sharded, so
// this counts Mallocs itself and takes the lesser of two runs to shed
// GC-timing noise.)
func TestAllocBudgetLeastelAutoSharded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := graph.Torus(128, 128)
	if got := sim.EffectiveShards(0, g.N(), 2); got != 2 {
		t.Fatalf("torus:128x128 on two cores resolves to %d shards, want 2", got)
	}
	prep, err := core.Prepare(g, "leastel")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	mallocs := func(shards int) (least uint64, rounds int) {
		var before, after runtime.MemStats
		for i := 0; i < 3; i++ { // one warm-up (it builds the shard layout), two measured
			runtime.ReadMemStats(&before)
			if err := prep.RunInto(core.RunOpts{Seed: 7, Shards: shards}, &res); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if !res.UniqueLeader() {
				t.Fatal("election failed")
			}
			if n := after.Mallocs - before.Mallocs; i >= 1 && (least == 0 || n < least) {
				least = n
			}
		}
		return least, res.Rounds
	}
	single, rounds := mallocs(1)
	auto, autoRounds := mallocs(0)
	if autoRounds != rounds {
		t.Fatalf("auto-sharded run took %d rounds, single-shard %d", autoRounds, rounds)
	}
	t.Logf("leastel on torus:128x128: %.1f allocations per node single-shard, %+d auto-sharded", float64(single)/float64(g.N()), int64(auto)-int64(single))
	if extra := int64(auto) - int64(single); extra >= int64(rounds) {
		t.Errorf("auto-sharded leastel on torus:128x128: %d allocations over the single-shard %d in %d rounds, budget < 1 per round",
			extra, single, rounds)
	}
}

// TestAllocBudgetGraphConstruction pins the CSR builders' allocation
// budget: a family build performs O(1) allocations regardless of node
// count or density — the Graph shell, the three flat CSR arrays
// (off/nbr/back), one fill cursor, and the builder closures. The old
// edge-list path allocated per adjacency row plus a map entry per edge
// (36.9k allocations for Complete(2048)); a budget of 8 catches any
// reintroduced per-edge or per-node allocation.
func TestAllocBudgetGraphConstruction(t *testing.T) {
	cases := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"ring:4096", func() *graph.Graph { return graph.Ring(4096) }},
		{"complete:512", func() *graph.Graph { return graph.Complete(512) }},
		{"torus:32x32", func() *graph.Graph { return graph.Torus(32, 32) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var g *graph.Graph
			allocs := testing.AllocsPerRun(10, func() { g = c.build() })
			if g.N() == 0 {
				t.Fatal("empty graph")
			}
			if allocs > 8 {
				t.Errorf("%s: %.0f allocs per build, want O(1) (<= 8)", c.name, allocs)
			}
		})
	}
}

// heapCost returns the bytes and objects f allocates, read off the
// runtime's cumulative counters (one call: what a first run costs cannot
// be averaged over repeats).
func heapCost(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAllocBudgetColdRunner pins what a Runner costs before it is warm —
// the price of every uled request that misses the Prepared cache and of
// every graph a sweep visits once. On a small graph, core.Prepare plus the
// first run of kingdom: the rows start out carved from two slabs instead
// of growing one append at a time, node by node, and a synchronous
// message goes straight into its receiver's row, so the wheel grows no
// delivery array at all (231 KB in 720 allocations with an array per tick
// of the run, 124 KB in 384 with one lent array; 115.5 KB in 372
// measured). On complete:1024, where a row could be a thousand messages:
// the slab gives a row at most 32 slots up front (8.6 MB for the Runner
// before, 10.2 MB measured; n·degree slots would be 50 MB), and the first
// kingdom run, whose rows do grow, costs what its rows need and no copy
// of its busiest tick in the wheel (1.09 GB with an array per ring slot,
// 0.40 GB with one, 0.228 GB measured).
func TestAllocBudgetColdRunner(t *testing.T) {
	small, err := graph.FromSpec("random:24:60", 1)
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	run := func(prep *core.Prepared) {
		if err := prep.RunInto(core.RunOpts{Seed: 7, SmallIDs: true}, &res); err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatal("election failed")
		}
	}
	bytes, objects := heapCost(func() {
		prep, err := core.Prepare(small, "kingdom")
		if err != nil {
			t.Fatal(err)
		}
		run(prep)
	})
	t.Logf("kingdom on random:24:60, Prepare + first run: %d B in %d allocations", bytes, objects)
	if bytes > 120<<10 || objects > 420 {
		t.Errorf("kingdom on random:24:60, Prepare + first run: %d KB in %d allocations, budget 120 KB in 420", bytes>>10, objects)
	}

	big := graph.Complete(1024)
	var prep *core.Prepared
	bytes, _ = heapCost(func() {
		if prep, err = core.Prepare(big, "kingdom"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Prepare on complete:1024: %d B", bytes)
	if bytes > 12<<20 {
		t.Errorf("Prepare on complete:1024: %.1f MB, budget 12 MB", float64(bytes)/(1<<20))
	}
	bytes, _ = heapCost(func() { run(prep) })
	t.Logf("kingdom on complete:1024, first run: %d B", bytes)
	if bytes > 260<<20 {
		t.Errorf("kingdom on complete:1024, first run: %d MB allocated, budget 260 MB", bytes>>20)
	}
}

// TestAllocBudgetNodeFootprint pins what a node's coins and least-element
// list cost the heap. A generator that draws no more than the 273 values
// its closed form covers holds no register: sim.NewRand plus 273 draws is
// the 48-byte source, and the 48-byte *rand.Rand when it escapes (the
// register in 64-word chunks cost 5.3 KB in 11 allocations). A cold
// core.Prepare plus the first run of elect-sparse's leastel cell, scaled
// to ring:4096 (async random delays, adversarial wake), is held per node
// to its measured cost plus 15 %: 1281 B measured, 2579 B with chunked
// generators and 24-byte list entries.
func TestAllocBudgetNodeFootprint(t *testing.T) {
	const seeds = 64
	bytes, objects := heapCost(func() {
		for s := int64(0); s < seeds; s++ {
			r := sim.NewRand(s)
			for i := 0; i < 273; i++ {
				coinSink += r.Int63()
			}
		}
	})
	t.Logf("sim.NewRand + 273 draws: %.1f B in %.2f allocations", float64(bytes)/seeds, float64(objects)/seeds)
	if bytes > 112*seeds || objects > 2*seeds {
		t.Errorf("sim.NewRand + 273 draws: %.1f B in %.2f allocations, budget 112 B in 2", float64(bytes)/seeds, float64(objects)/seeds)
	}

	g := graph.Ring(4096)
	m, err := sim.ParseModel("async+random:8")
	if err != nil {
		t.Fatal(err)
	}
	ro := core.RunOpts{Seed: 7, Model: m, Wake: adversarialWake(g.N())}
	var prep *core.Prepared
	var res sim.Result
	run := func() {
		if err := prep.RunInto(ro, &res); err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatal("election failed")
		}
	}
	bytes, objects = heapCost(func() {
		if prep, err = core.Prepare(g, "leastel"); err != nil {
			t.Fatal(err)
		}
		run()
	})
	perNode := float64(bytes) / float64(g.N())
	t.Logf("leastel on ring:4096 (async+random:8, adversarial wake), Prepare + first run: %.0f B per node in %.2f allocations", perNode, float64(objects)/float64(g.N()))
	if perNode > 1475 {
		t.Errorf("leastel on ring:4096, Prepare + first run: %.0f B per node, budget 1475", perNode)
	}
}

// stepCounter wraps a protocol so that every Round call of every node is
// counted: the host steps a run costs, next to the messages the paper
// prices it in. Single-shard runs only (one shared counter).
type stepCounter struct {
	sim.Protocol
	steps *int64
}

func (p stepCounter) New(info sim.NodeInfo) sim.Process {
	return &countedProc{Process: p.Protocol.New(info), steps: p.steps}
}

type countedProc struct {
	sim.Process
	steps *int64
}

func (p *countedProc) Round(c *sim.Context, inbox []sim.Message) {
	*p.steps++
	p.Process.Round(c, inbox)
}

// firstTrial hides a protocol's Renew, so that a warm Runner builds every
// process with New: the allocations of a Prepared's first trial, measured
// without the Runner's own cold arenas.
type firstTrial struct{ sim.Protocol }

// census is the host's price of one election per delivered message.
type census struct {
	cold, warm float64 // heap allocations: first trial of a Prepared, any later one
	steps      float64 // Round calls
}

// protocolCensus runs algo on g (one shard, simultaneous wake, permutation
// IDs) on warm engine arenas and returns heap allocations — with every
// process built by New, and with the processes of the last trial renewed,
// which is what Prepared.RunInto does from its second trial on — and Round
// calls per delivered message; ok is false when the run delivers none. The
// step count comes from another run of the same election with the protocol
// wrapped, so the wrapper's allocation per node is not billed to algo; all
// runs must agree on messages and rounds.
func protocolCensus(t testing.TB, g *graph.Graph, algo string) (c census, ok bool) {
	t.Helper()
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3)))
	prep, err := core.Prepare(g, algo)
	if err != nil {
		t.Fatal(err)
	}
	ro := core.RunOpts{Seed: 5, IDs: ids, Shards: 1, MaxRounds: 1 << 17}
	cfg, proto, err := core.Config(g, algo, ro)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := sim.NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	var res, first sim.Result
	warm := func() {
		if err := prep.RunInto(ro, &res); err != nil {
			t.Fatal(err)
		}
	}
	cold := func() {
		if err := runner.RunInto(cfg, firstTrial{proto}, &first); err != nil {
			t.Fatal(err)
		}
	}
	warm() // warm the Runners' buffers
	cold()
	c.warm = testing.AllocsPerRun(3, warm)
	c.cold = testing.AllocsPerRun(3, cold)
	if res.Messages == 0 {
		return c, false
	}

	var steps int64
	counted, err := runner.Run(cfg, stepCounter{proto, &steps})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*sim.Result{&first, counted} {
		if r.Messages != res.Messages || r.Rounds != res.Rounds {
			t.Fatalf("%s: a run sent %d messages in %d rounds, the Prepared's %d in %d",
				algo, r.Messages, r.Rounds, res.Messages, res.Rounds)
		}
	}
	m := float64(res.Messages)
	return census{c.cold / m, c.warm / m, float64(steps) / m}, true
}

// startMeter wraps a protocol so that the heap allocations made inside
// each node's Start are summed. Single-shard runs only (one shared counter,
// and runtime.ReadMemStats counts the whole process).
type startMeter struct {
	sim.Protocol
	mallocs *uint64
}

func (p startMeter) New(info sim.NodeInfo) sim.Process {
	return &meteredProc{Process: p.Protocol.New(info), mallocs: p.mallocs}
}

type meteredProc struct {
	sim.Process
	mallocs *uint64
}

func (p *meteredProc) Start(c *sim.Context) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Process.Start(c)
	runtime.ReadMemStats(&after)
	*p.mallocs += after.Mallocs - before.Mallocs
}

// TestFloodStartBudget pins the flood machine's per-node set-up on a
// process that is new (the meter's wrapper hides Renew; a renewed process
// allocates nothing here): a leastel node, candidate with its
// announcements queued and flushed, leaves Start having allocated at most
// 3 objects (the drip queue, the least-element list, and flush's per-port
// counters where a port is over its rate; the inbox sort scratch comes
// with the first announcement) on any degree — no send hook, no identity
// port slice, no per-port queue rows. The protocol comes from core.Config,
// so it has box shelves, as in production, and the second run is the one
// measured, so the wire boxes come from those shelves.
func TestFloodStartBudget(t *testing.T) {
	for _, spec := range []string{"torus:32x32", "star:257", "complete:64"} {
		g, err := graph.FromSpec(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		var mallocs uint64
		cfg, leastel, err := core.Config(g, "leastel", core.RunOpts{
			Seed: 5, IDs: sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3))), Shards: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		proto := startMeter{leastel, &mallocs}
		r, err := sim.NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		var res sim.Result
		for i := 0; i < 2; i++ {
			mallocs = 0
			if err := r.RunInto(cfg, proto, &res); err != nil {
				t.Fatal(err)
			}
			if !res.UniqueLeader() {
				t.Fatal("election failed")
			}
		}
		perNode := float64(mallocs) / float64(g.N())
		t.Logf("leastel on %s: %.2f allocations per node in Start", spec, perNode)
		if perNode > 3 {
			t.Errorf("leastel on %s: %.2f allocations per node in Start, budget 3", spec, perNode)
		}
	}
}

// TestProtocolBudgets prices every registered algorithm in the paper's own
// unit: on torus:32x32, heap allocations and Round calls per delivered
// message must stay within the row below. The cold column is a Prepared's
// first trial, every process built by New: kingdom, kingdom-d and cluster
// are held to the message-proportional target (docs/PERFORMANCE.md has the
// census before and after); the other rows are the measured census rounded
// up, so that a reintroduced per-send boxing, per-round slice or lost idle
// hint has a row to fail. The warm column is every later trial, on renewed
// processes (every registered protocol is a sim.Recycler), and every
// protocol allocates next to nothing there.
func TestProtocolBudgets(t *testing.T) {
	const renewed = 0.05
	budgets := map[string]struct{ cold, warm, steps float64 }{
		"cluster":          {0.5, renewed, 1.0},
		"dfs":              {0.4, renewed, 1.2},
		"flood":            {0.3, renewed, 0.8},
		"kingdom":          {0.5, renewed, 1.0},
		"kingdom-d":        {0.5, renewed, 1.0},
		"lasvegas":         {0.5, renewed, 1.0},
		"leastel":          {0.3, renewed, 0.6},
		"leastel-const":    {0.4, renewed, 0.9},
		"leastel-estimate": {0.3, renewed, 0.6},
		"leastel-loglog":   {0.4, renewed, 0.9},
		"spanner-le":       {0.4, renewed, 0.8},
	}
	g := graph.Torus(32, 32)
	for _, algo := range core.Names() {
		c, ok := protocolCensus(t, g, algo)
		if !ok {
			continue // sends nothing (trivial): no message to price a step in
		}
		b, pinned := budgets[algo]
		if !pinned {
			t.Errorf("%s: no budget row (measured %.2f cold and %.2f warm allocs/msg, %.2f steps/msg)", algo, c.cold, c.warm, c.steps)
			continue
		}
		t.Logf("%-17s %.3f allocs/msg cold (budget %.1f)  %.3f warm (budget %.2f)  %.2f steps/msg (budget %.1f)",
			algo, c.cold, b.cold, c.warm, b.warm, c.steps, b.steps)
		if c.cold > b.cold {
			t.Errorf("%s: %.3f allocations per delivered message on a first trial, budget %.1f", algo, c.cold, b.cold)
		}
		if c.warm > b.warm {
			t.Errorf("%s: %.3f allocations per delivered message on a later trial, budget %.2f", algo, c.warm, b.warm)
		}
		if c.steps > b.steps {
			t.Errorf("%s: %.3f Round calls per delivered message, budget %.1f", algo, c.steps, b.steps)
		}
	}
}
