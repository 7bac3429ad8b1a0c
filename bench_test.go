// Benchmarks regenerating every table/figure of the paper (see DESIGN.md
// §5 for the experiment index E1–E15). Each benchmark reports the paper's
// claimed quantity as custom metrics (msgs/m, rounds/D, normalized by the
// claimed bound) so that `go test -bench=. -benchmem` reproduces Table 1's
// shape directly.
package ule

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/lowerbound"
	"ule/internal/sim"
)

// benchElect runs one election per iteration and reports normalized
// message/time metrics.
func benchElect(b *testing.B, g *graph.Graph, algo string, d int, msgDenom, timeDenom float64, smallIDs bool, opt core.Options) {
	b.Helper()
	var msgs, rounds, succ float64
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		var ids []int64
		if smallIDs {
			ids = sim.PermutationIDs(g.N(), rand.New(rand.NewSource(seed)))
		}
		res, err := core.Run(g, algo, core.RunOpts{
			Seed: seed, IDs: ids, D: d, MaxRounds: 1 << 19, Opt: opt,
		})
		if err != nil {
			b.Fatal(err)
		}
		msgs += float64(res.Messages)
		rounds += float64(res.LastActive)
		if res.UniqueLeader() {
			succ++
		}
	}
	n := float64(b.N)
	b.ReportMetric(msgs/n/msgDenom, "msgs/bound")
	b.ReportMetric(rounds/n/timeDenom, "rounds/bound")
	b.ReportMetric(succ/n, "success")
}

// benchRow is benchElect normalised by algo's Table 1 bound
// (core.Bound); rounds stay raw where the row gives no time bound in n, m
// and D.
func benchRow(b *testing.B, g *graph.Graph, algo string, d int, smallIDs bool, opt core.Options) {
	b.Helper()
	bound := core.MustGet(algo).Bound
	rounds := 1.0
	if bound.Rounds.Of != nil {
		rounds = bound.Rounds.Of(g.N(), g.M(), d)
	}
	benchElect(b, g, algo, d, bound.Msgs.Of(g.N(), g.M(), d), rounds, smallIDs, opt)
}

func mustRandom(b *testing.B, n, m int, seed int64) *graph.Graph {
	b.Helper()
	g, err := graph.RandomConnected(n, m, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// --- Lower bounds -----------------------------------------------------

// BenchmarkLB_MessagesDumbbell (E1, Theorem 3.1): msgs/m on dumbbells must
// stay >= a positive constant for every universal algorithm.
func BenchmarkLB_MessagesDumbbell(b *testing.B) {
	for _, algo := range []string{"leastel", "leastel-const", "flood", "kingdom"} {
		b.Run(algo, func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			var ratio float64
			for i := 0; i < b.N; i++ {
				db, kappa, err := graph.RandomDumbbell(24, 200, rng)
				if err != nil {
					b.Fatal(err)
				}
				res, err := core.Run(db.Graph, algo, core.RunOpts{
					Seed: int64(i), IDs: sim.PermutationIDs(db.N(), rng),
					D: 2*(24-kappa) + 1, MaxRounds: 1 << 19,
				})
				if err != nil {
					b.Fatal(err)
				}
				ratio += float64(res.Messages) / float64(db.M())
			}
			b.ReportMetric(ratio/float64(b.N), "msgs/m")
		})
	}
}

// BenchmarkLB_BridgeCrossing (E2, Lemma 3.5): messages precede the first
// bridge crossing; crossRound is the round of that crossing.
func BenchmarkLB_BridgeCrossing(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var before, cross float64
	for i := 0; i < b.N; i++ {
		db, kappa, err := graph.RandomDumbbell(24, 200, rng)
		if err != nil {
			b.Fatal(err)
		}
		res, err := core.Run(db.Graph, "leastel-const", core.RunOpts{
			Seed: int64(i), IDs: sim.RandomIDs(db.N(), rng),
			D: 2*(24-kappa) + 1, MaxRounds: 1 << 19, WatchEdges: db.Bridges[:],
		})
		if err != nil {
			b.Fatal(err)
		}
		before += float64(res.MessagesBeforeCrossing)
		cross += float64(res.FirstCrossing)
	}
	b.ReportMetric(before/float64(b.N), "msgsBeforeCross")
	b.ReportMetric(cross/float64(b.N), "crossRound")
}

// BenchmarkLB_TimeCliqueCycle (E3, Theorem 3.13 / Figure 1): rounds/D on
// the clique-cycle stays >= a positive constant.
func BenchmarkLB_TimeCliqueCycle(b *testing.B) {
	for _, algo := range []string{"leastel", "flood", "lasvegas"} {
		b.Run(algo, func(b *testing.B) {
			cc, err := graph.NewCliqueCycle(96, 24)
			if err != nil {
				b.Fatal(err)
			}
			d := cc.DiameterExact()
			benchElect(b, cc.Graph, algo, d, float64(cc.M()), float64(d), false, core.Options{})
		})
	}
}

// BenchmarkTrivialSuccess (E4, §1): zero messages, ~1/e success.
func BenchmarkTrivialSuccess(b *testing.B) {
	g := graph.Ring(256)
	var succ float64
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, "trivial", core.RunOpts{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.UniqueLeader() {
			succ++
		}
	}
	b.ReportMetric(succ/float64(b.N), "success")
}

// BenchmarkLB_Broadcast (E5, Corollary 3.12): flooding broadcast pays
// Θ(m) messages on dumbbells.
func BenchmarkLB_Broadcast(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	row, err := lowerbound.BroadcastLB(24, 200, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = row
	var ratio float64
	for i := 0; i < b.N; i++ {
		r, err := lowerbound.BroadcastLB(24, 200, 1, rng.Int63())
		if err != nil {
			b.Fatal(err)
		}
		ratio += r.MsgsPerM.Mean
	}
	b.ReportMetric(ratio/float64(b.N), "msgs/m")
}

// --- Upper bounds (one per Table 1 row) -------------------------------

// BenchmarkThm41_DFS (E6): O(m) messages.
func BenchmarkThm41_DFS(b *testing.B) {
	g := mustRandom(b, 96, 400, 2)
	benchRow(b, g, "dfs", 0, true, core.Options{})
}

// BenchmarkThm44_LeastEl (E7): O(m·min(log f, D)) messages, O(D) time.
func BenchmarkThm44_LeastEl(b *testing.B) {
	g := mustRandom(b, 256, 1500, 3)
	d := g.DiameterExact()
	benchRow(b, g, "leastel", d, false, core.Options{})
}

// BenchmarkThm44A (E8): O(m·log log n) messages.
func BenchmarkThm44A(b *testing.B) {
	g := mustRandom(b, 256, 1500, 3)
	d := g.DiameterExact()
	benchRow(b, g, "leastel-loglog", d, false, core.Options{})
}

// BenchmarkThm44B (E9): O(m) messages, success >= 1-eps.
func BenchmarkThm44B(b *testing.B) {
	g := mustRandom(b, 256, 1500, 3)
	d := g.DiameterExact()
	benchRow(b, g, "leastel-const", d, false, core.Options{Epsilon: 0.1})
}

// BenchmarkCor42_Spanner (E10): O(m) messages and O(D) time on dense
// graphs (m ≈ n^1.75 here).
func BenchmarkCor42_Spanner(b *testing.B) {
	n := 128
	g := mustRandom(b, n, n*(n-1)/4, 4)
	d := g.DiameterExact()
	benchRow(b, g, "spanner-le", d, false, core.Options{SpannerK: 2})
}

// BenchmarkCor45_Estimate (E11): no knowledge of n, O(m·log n) messages.
func BenchmarkCor45_Estimate(b *testing.B) {
	g := mustRandom(b, 256, 1200, 5)
	d := g.DiameterExact()
	benchRow(b, g, "leastel-estimate", d, false, core.Options{})
}

// BenchmarkCor46_LasVegas (E12): expected O(m) messages and O(D) time.
func BenchmarkCor46_LasVegas(b *testing.B) {
	g := graph.Ring(128)
	benchRow(b, g, "lasvegas", 64, false, core.Options{})
}

// BenchmarkThm47_Cluster (E13): O(m + n·log n) messages, O(D·log n) time.
func BenchmarkThm47_Cluster(b *testing.B) {
	g := mustRandom(b, 256, 1500, 6)
	d := g.DiameterExact()
	benchRow(b, g, "cluster", d, false, core.Options{})
}

// BenchmarkThm410_Kingdom (E14): O(m·log n) messages, O(D·log n) time,
// deterministic, no knowledge. The protocol is message-driven, so next to
// the paper's bounds it reports the host's price per delivered message:
// heap allocations, on a Prepared's first trial and on a later one, and
// Round calls (TestProtocolBudgets pins all three).
func BenchmarkThm410_Kingdom(b *testing.B) {
	g := mustRandom(b, 192, 800, 7)
	d := g.DiameterExact()
	c, _ := protocolCensus(b, g, "kingdom")
	b.ResetTimer()
	benchRow(b, g, "kingdom", d, true, core.Options{})
	b.ReportMetric(c.cold, "cold-allocs/msg")
	b.ReportMetric(c.warm, "warm-allocs/msg")
	b.ReportMetric(c.steps, "steps/msg")
}

// BenchmarkTable1 (E15): head-to-head on one graph; raw msgs/m and rounds.
func BenchmarkTable1(b *testing.B) {
	g := mustRandom(b, 128, 640, 8)
	d := g.DiameterExact()
	for _, algo := range core.Names() {
		b.Run(algo, func(b *testing.B) {
			benchElect(b, g, algo, d, float64(g.M()), float64(d), true, core.Options{})
		})
	}
}

// --- Ablations (DESIGN.md §6) ------------------------------------------

// BenchmarkAblation_CandidateSampling sweeps the success/message trade-off
// of f(n) — the paper's §5 open question about the precise trade-off.
func BenchmarkAblation_CandidateSampling(b *testing.B) {
	g := mustRandom(b, 256, 1024, 9)
	for _, fscale := range []float64{0.5, 1, 2, 4} {
		b.Run(fscaleName(fscale), func(b *testing.B) {
			benchElect(b, g, "leastel-const", 0, float64(g.M()), 1, false,
				core.Options{Epsilon: 0.1, FScale: fscale})
		})
	}
}

func fscaleName(f float64) string {
	switch {
	case f < 1:
		return "f-half"
	case f == 1:
		return "f-1x"
	case f == 2:
		return "f-2x"
	default:
		return "f-4x"
	}
}

// BenchmarkAblation_SpannerK sweeps the Baswana–Sen parameter: larger k
// means a sparser spanner but more construction rounds and stretch.
func BenchmarkAblation_SpannerK(b *testing.B) {
	n := 128
	g := mustRandom(b, n, n*(n-1)/4, 10)
	d := g.DiameterExact()
	for _, k := range []int{2, 3, 4} {
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			benchElect(b, g, "spanner-le", d, float64(g.M()), float64(d), false, core.Options{SpannerK: k})
		})
	}
}

// --- Engine: event-driven scheduler vs legacy dense loop ----------------

// waveMsg/waveProto is the canonical sparse-activity workload: one node
// wakes spontaneously (adversarial wake-up), a one-shot wave crosses the
// graph, and every node halts right after forwarding it. At any moment
// only the wavefront is active, so the event-driven engine touches O(1)
// nodes per round while the dense loop scans all n.
type waveMsg struct{}

func (waveMsg) Bits() int { return 1 }

// waveTok is the singleton wave payload (field-less payloads are sent as
// package-level singletons; see docs/PERFORMANCE.md).
var waveTok sim.Payload = waveMsg{}

type waveProto struct{}

func (waveProto) New(sim.NodeInfo) sim.Process { return &waveProc{} }

type waveProc struct{ done bool }

func (p *waveProc) Start(c *sim.Context) {
	if c.SpontaneousWake() {
		p.done = true
		c.Broadcast(waveTok)
		c.Decide(sim.NonLeader)
		c.Halt()
	}
}

func (p *waveProc) Round(c *sim.Context, inbox []sim.Message) {
	if !p.done {
		p.done = true
		c.BroadcastExcept(inbox[0].Port, waveTok)
		c.Decide(sim.NonLeader)
	}
	c.Halt()
}

// adversarialWake wakes only node 0; everyone else sleeps until a message
// arrives.
func adversarialWake(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = sim.WakeOnMessage
	}
	w[0] = 1
	return w
}

// BenchmarkEngineSparse_WaveRing4096 is the headline sparse-activity
// case: adversarial wake-up on ring:4096, one node awake per tick. The
// recorded counterpart is cmd/ule-bench's sim.floor_ns_per_tick (the same
// one-shot wave on a ring 8× larger, warm Runner).
func BenchmarkEngineSparse_WaveRing4096(b *testing.B) {
	g := graph.Ring(4096)
	wake := adversarialWake(g.N())
	r, err := sim.NewRunner(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(sim.Config{Seed: int64(i), Wake: wake}, waveProto{})
		if err != nil {
			b.Fatal(err)
		}
		// Node 0 sends 2, every other node forwards once: n+1 total.
		if !res.Halted || res.Messages != int64(g.N()+1) {
			b.Fatalf("wave broken: halted=%v messages=%d", res.Halted, res.Messages)
		}
	}
}

// BenchmarkEngineSparse_LeastelAdversarial runs a registered algorithm
// under adversarial wake-up on ring:4096: the awake set grows gradually,
// and the still-sleeping half of the ring costs the engine nothing.
func BenchmarkEngineSparse_LeastelAdversarial(b *testing.B) {
	g := graph.Ring(4096)
	wake := adversarialWake(g.N())
	for i := 0; i < b.N; i++ {
		res, err := core.Run(g, "leastel", core.RunOpts{
			Seed: int64(i), Wake: wake, MaxRounds: 1 << 15,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.UniqueLeader() {
			b.Fatal("election failed")
		}
	}
}

// BenchmarkEngineWarm_LeastelAdversarial is the steady-state variant of
// the sparse comparison: one Prepared — a warm sim.Runner plus a recycled
// Result — serves every iteration, so the per-op numbers are pure fast
// path (message arenas, pooled payloads, timing wheel) with no Runner or
// Result construction. The recorded counterparts are cmd/ule-bench's
// core.run_ms.leastel-ring32k-async and sim.allocs_per_run.
func BenchmarkEngineWarm_LeastelAdversarial(b *testing.B) {
	g := graph.Ring(4096)
	wake := adversarialWake(g.N())
	prep, err := core.Prepare(g, "leastel")
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := prep.RunInto(core.RunOpts{Seed: int64(i), Wake: wake, MaxRounds: 1 << 15}, &res)
		if err != nil {
			b.Fatal(err)
		}
		if !res.UniqueLeader() {
			b.Fatal("election failed")
		}
	}
}

// BenchmarkSparseDFSTorus64 is the dfs cell of cmd/ule-bench's
// elect-sparse workload (`core.run_ms.dfs-torus64`): Theorem 4.1 on
// torus:64x64, one node awake, IDs 1..n. An agent with ID i moves once in
// 2^i rounds, so nearly all of the ~49 k rounds are waiting, which the
// nodes declare with Context.IdleUntil: the engine's cost follows the
// ~57 k messages, not the rounds × awake nodes.
func BenchmarkSparseDFSTorus64(b *testing.B) {
	g := graph.Torus(64, 64)
	wake := adversarialWake(g.N())
	prep, err := core.Prepare(g, "dfs")
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	var rounds, msgs float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		seed := int64(i) + 1
		err := prep.RunInto(core.RunOpts{
			Seed: seed, IDs: sim.PermutationIDs(g.N(), rand.New(rand.NewSource(seed))),
			Wake: wake, MaxRounds: 1 << 19,
		}, &res)
		if err != nil {
			b.Fatal(err)
		}
		if !res.UniqueLeader() {
			b.Fatal("election failed")
		}
		rounds += float64(res.Rounds)
		msgs += float64(res.Messages)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/op")
	b.ReportMetric(msgs/float64(b.N), "msgs/op")
}

// threeCoinsProto has every node draw three coins in round 1 and halt: a
// run costs little besides seeding the nodes' generators. With std set a
// node reseeds a math/rand generator of its own instead of the engine's
// Context.Rand (both are kept across runs, as the Runner keeps its own).
type threeCoinsProto struct {
	std  []*rand.Rand // indexed by node ID; nil: use Context.Rand
	seed int64        // run seed, for std
}

func (p threeCoinsProto) New(sim.NodeInfo) sim.Process { return p }
func (threeCoinsProto) Start(*sim.Context)             {}

// coinSink keeps the draws observable.
var coinSink int64

func (p threeCoinsProto) Round(c *sim.Context, _ []sim.Message) {
	var rng *rand.Rand
	if p.std == nil {
		rng = c.Rand()
	} else {
		rng = p.std[c.ID()]
		rng.Seed(sim.NodeSeed(p.seed, int(c.ID())))
	}
	coinSink += rng.Int63() + rng.Int63() + rng.Int63()
	c.Halt()
}

// BenchmarkNodeRNGSeed prices a node's first coins on a warm Runner: seed
// plus three draws, through the engine's lazily seeded generator and
// through math/rand's, which fills all 607 state words first. ns/node is
// the whole per-node cost of the run, engine included.
func BenchmarkNodeRNGSeed(b *testing.B) {
	g := graph.Ring(4096)
	ids := sim.SequentialIDs(g.N(), 0)
	for _, source := range []string{"lazy", "mathrand"} {
		b.Run(source, func(b *testing.B) {
			var p threeCoinsProto
			if source == "mathrand" {
				p.std = make([]*rand.Rand, g.N())
				for u := range p.std {
					p.std[u] = rand.New(rand.NewSource(1))
				}
			}
			r, err := sim.NewRunner(g)
			if err != nil {
				b.Fatal(err)
			}
			var res sim.Result
			run := func(seed int64) {
				p.seed = seed
				if err := r.RunInto(sim.Config{Seed: seed, IDs: ids, Shards: 1}, p, &res); err != nil {
					b.Fatal(err)
				}
			}
			run(0) // build the generators
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(int64(i) + 1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.N()), "ns/node")
		})
	}
}

// BenchmarkEngineAsync measures the event engine in ASYNC mode under each
// delay adversary (there is no dense-loop equivalent to compare against).
func BenchmarkEngineAsync(b *testing.B) {
	g := mustRandom(b, 512, 2048, 12)
	for _, delay := range []string{"unit", "random:8", "fifo:8"} {
		m, err := sim.ParseModel("async+" + delay)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(delay, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, "leastel-const", core.RunOpts{
					Seed: int64(i), Model: m, MaxRounds: 1 << 18,
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.LeaderCount() == 0 {
					b.Fatal("no leader under async adversary")
				}
			}
		})
	}
}

// BenchmarkEngineFaults measures the fault adversary's overhead on the
// warm fast path: one Prepared (recycled Runner, Result and faultState)
// across iterations, leastel on ring:4096 under each fault class. The
// "none" row is the fault-free baseline — its inner loop never touches
// the fault subsystem, so the delta is the real price of each adversary.
func BenchmarkEngineFaults(b *testing.B) {
	g := graph.Ring(4096)
	wake := adversarialWake(g.N())
	for _, fault := range []string{"none", "crash:0.1", "crashrec:0.1:64", "drop:0.05", "churn:0.1:256"} {
		m, err := sim.ParseModel(fault)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fault, func(b *testing.B) {
			prep, err := core.Prepare(g, "leastel")
			if err != nil {
				b.Fatal(err)
			}
			var res sim.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := prep.RunInto(core.RunOpts{
					Seed: int64(i), Wake: wake, MaxRounds: 1 << 15, Model: m,
				}, &res)
				if err != nil {
					b.Fatal(err)
				}
				if res.Rounds == 0 {
					b.Fatal("run executed no rounds")
				}
			}
		})
	}
}

// BenchmarkEngineParallel compares the single-shard engine with one shard
// per core on a dense instance (identical results, different wall-clock).
// The graph is below the size the engine shards by itself, so this is the
// forced count: what the per-tick dispatch makes of 1024 nodes.
func BenchmarkEngineParallel(b *testing.B) {
	g := mustRandom(b, 1024, 8192, 11)
	for _, shards := range []int{1, -1} {
		name := "shards=1"
		if shards < 0 {
			name = "shards=cores"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Run(g, "leastel", core.RunOpts{
					Seed: int64(i), Shards: shards, MaxRounds: 1 << 18,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.UniqueLeader() {
					b.Fatal("election failed")
				}
			}
		})
	}
}

// BenchmarkGraphMillionNodeWave is the scale probe the CSR topology core
// unlocks: build ring:1048576, stand up a Runner (O(n) now — the borrowed
// reverse-port table replaced the O(Σ deg²) PortTo scans), and push one
// wave across the million-node ring through the event engine.
func BenchmarkGraphMillionNodeWave(b *testing.B) {
	const n = 1 << 20
	g := graph.Ring(n)
	wake := adversarialWake(n)
	r, err := sim.NewRunner(g)
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.RunInto(sim.Config{Seed: int64(i), Wake: wake, MaxRounds: n}, waveProto{}, &res); err != nil {
			b.Fatal(err)
		}
		if !res.Halted || res.Messages != int64(n+1) {
			b.Fatalf("wave broken: halted=%v messages=%d", res.Halted, res.Messages)
		}
	}
}

// BenchmarkEngineSharded is the sharded-engine scale probe: the
// million-node ring wave of BenchmarkGraphMillionNodeWave, split across
// 1/2/4/8 contiguous node shards. The transcript is byte-identical at
// every count (the determinism matrix pins that). A wave is the sparsest
// run there is — one delivery and one step per tick — so every tick runs
// inline and all but one shard sit it out: what this measures is what a
// shard layout costs a run that cannot use it, which should be close to
// nothing. (`make bench-shard`; the dense counterpart, where shards pay,
// is the elect-dense workload of cmd/ule-bench.)
func BenchmarkEngineSharded(b *testing.B) {
	const n = 1 << 20
	g := graph.Ring(n)
	wake := adversarialWake(n)
	r, err := sim.NewRunner(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ring1M/shards=%d", shards), func(b *testing.B) {
			var res sim.Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := sim.Config{Seed: int64(i), Wake: wake, MaxRounds: n, Shards: shards}
				if err := r.RunInto(cfg, waveProto{}, &res); err != nil {
					b.Fatal(err)
				}
				if !res.Halted || res.Messages != int64(n+1) {
					b.Fatalf("wave broken: halted=%v messages=%d", res.Halted, res.Messages)
				}
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "rounds/s")
		})
	}
}

// BenchmarkEngineSharded10M is the 10-million-node run: one wave over
// ring:10000000 through the sharded engine at 8 shards. It exists to
// prove the engine's O(n) setup and O(1)-per-tick scheduling hold an
// order of magnitude past the million-node probe; run with
// -benchtime=1x (the bench-shard target does).
func BenchmarkEngineSharded10M(b *testing.B) {
	const n = 10_000_000
	g := graph.Ring(n)
	wake := adversarialWake(n)
	r, err := sim.NewRunner(g)
	if err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := sim.Config{Seed: int64(i), Wake: wake, MaxRounds: n, Shards: 8}
		if err := r.RunInto(cfg, waveProto{}, &res); err != nil {
			b.Fatal(err)
		}
		if !res.Halted || res.Messages != int64(n+1) {
			b.Fatalf("wave broken: halted=%v messages=%d", res.Halted, res.Messages)
		}
	}
	b.ReportMetric(float64(n)/b.Elapsed().Seconds()*float64(b.N), "rounds/s")
}

// BenchmarkEngineThroughput measures raw simulator speed (node-rounds/s).
func BenchmarkEngineThroughput(b *testing.B) {
	g := graph.Torus(32, 32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(g, "leastel-const", core.RunOpts{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineDense_FloodRandom64k is the flood cell of cmd/ule-bench's
// elect-dense workload (`core.run_ms.flood-random64k`), the cell that
// dominates that workload's rotation: FloodMax on random:65536:524288 with
// the double-sweep diameter estimate granted, one warm Prepared serving
// every iteration. Nearly all of a run is the engine's synchronous message
// path — Broadcast, flush, delivery, inbox order — around an eight-line
// Round, so ns/msg here is the price of one simulated message on a graph
// too large for the cache (docs/PERFORMANCE.md § "The synchronous message
// path" quotes it step by step). heap-MiB is the heap in use after a
// collection once the warm runs are done: what the Prepared, its Runner's
// rows and mailboxes and the graph hold between elections
// (docs/PERFORMANCE.md § "A synchronous message never enters the wheel").
// Run with -cpu 1,2: the default shard count follows GOMAXPROCS (`make
// bench-dense`).
func BenchmarkEngineDense_FloodRandom64k(b *testing.B) {
	g, err := graph.FromSpec("random:65536:524288", 1)
	if err != nil {
		b.Fatal(err)
	}
	prep, err := core.Prepare(g, "flood")
	if err != nil {
		b.Fatal(err)
	}
	d := g.DiameterEstimate()
	var res sim.Result
	run := func(seed int64) {
		if err := prep.RunInto(core.RunOpts{Seed: seed, D: d}, &res); err != nil {
			b.Fatal(err)
		}
		if !res.UniqueLeader() {
			b.Fatal("election failed")
		}
	}
	run(0) // warm: rows, wheels and processes reach their steady size
	var msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(int64(i) + 1)
		msgs += res.Messages
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapInuse)/(1<<20), "heap-MiB")
	runtime.KeepAlive(prep)
}
