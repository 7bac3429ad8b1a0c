package sim_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// idleGraphs are the battery's topologies, small enough for the
// O(n)-per-round reference to run every cell: a cycle, a grid and an
// irregular graph, and with dense set a hub, a clique and two dense halves
// joined by a bridge as well (the fault battery, four schedules a cell,
// stays on the first three).
func idleGraphs(t *testing.T, dense bool) map[string]*graph.Graph {
	t.Helper()
	random, err := graph.RandomConnected(24, 60, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"ring:16": graph.Ring(16), "torus:5x5": graph.Torus(5, 5), "random:24:60": random}
	if dense {
		graphs["star:12"], graphs["complete:16"] = graph.Star(12), graph.Complete(16)
		if graphs["dumbbell:16:40"], err = graph.FromSpec("dumbbell:16:40", 3); err != nil {
			t.Fatal(err)
		}
	}
	return graphs
}

// idleWakes are the three wake-up regimes: everyone in round 1, one node
// with the rest woken by messages, and rounds 1..7 staggered by index.
func idleWakes(n int) map[string][]int {
	adversarial, staggered := make([]int, n), make([]int, n)
	for i := range adversarial {
		adversarial[i] = sim.WakeOnMessage
		staggered[i] = 1 + i%7
	}
	adversarial[n/3] = 1
	return map[string][]int{"simultaneous": nil, "adversarial": adversarial, "staggered": staggered}
}

// idleLayouts are the engine layouts a hinted run must not depend on:
// shard count × how the ticks of a multi-shard run are dispatched.
var idleLayouts = []struct {
	name   string
	shards int
	work   int // minPooledWork to run under
}{
	{"shards=1", 1, math.MaxInt},
	{"shards=2/pooled", 2, 0},
	{"shards=2/inline", 2, math.MaxInt},
	{"shards=4/pooled", 4, 0},
	{"shards=4/inline", 4, math.MaxInt},
}

// forEachIdleCell runs fn for every registered algorithm × synchronous
// mode (+ fault term) × wake regime × graph; IDs are 1..n so that dfs,
// whose step period is 2^ID, finishes inside the round cap.
func forEachIdleCell(t *testing.T, graphs map[string]*graph.Graph, faults []string, maxRounds int, fn func(t *testing.T, g *graph.Graph, algo string, ro core.RunOpts)) {
	for gname, g := range graphs {
		ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(7)))
		for wname, wake := range idleWakes(g.N()) {
			for _, algo := range core.Names() {
				for _, mode := range []string{"congest", "local"} {
					for _, fault := range faults {
						t.Run(gname+"/"+wname+"/"+algo+"/"+mode+fault, func(t *testing.T) {
							m, err := sim.ParseModel(mode + fault)
							if err != nil {
								t.Fatal(err)
							}
							fn(t, g, algo, core.RunOpts{
								Seed: 7, IDs: ids, Model: m, Wake: wake, MaxRounds: maxRounds,
								WatchEdges: [][2]int{{0, 1}}, CountPerEdge: true,
							})
						})
					}
				}
			}
		}
	}
}

// runIdleLayouts runs one cell under every layout and requires the
// reference Result from each.
func runIdleLayouts(t *testing.T, g *graph.Graph, algo string, ro core.RunOpts, want *sim.Result) {
	t.Helper()
	for _, l := range idleLayouts {
		ro.Shards = l.shards
		restore := sim.SetMinPooledWork(l.work)
		got, err := core.Run(g, algo, ro)
		restore()
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: hinted run diverges from the reference:\ngot:  %+v\nwant: %+v", l.name, got, want)
		}
	}
}

// TestIdleHintSoundness holds every IdleUntil in internal/core to its
// promise, and the event engine to the model. The reference interpreter
// ignores hints and steps every awake node every round; the event engine
// parks hinted nodes and jumps over rounds nobody holds a timer in. If a
// parked step would have done anything — sent, decided, halted, drawn a
// coin that a later message depends on — the two Results differ. Both are
// handed the one sim.Config core resolves the cell to.
func TestIdleHintSoundness(t *testing.T) {
	forEachIdleCell(t, idleGraphs(t, true), []string{""}, 1<<11, func(t *testing.T, g *graph.Graph, algo string, ro core.RunOpts) {
		cfg, proto, err := core.Config(g, algo, ro)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.RunReference(cfg, proto)
		if err != nil {
			t.Fatal(err)
		}
		runIdleLayouts(t, g, algo, ro, want)
	})
}

// TestIdleHintSoundnessFaults is the same under crash, recovery and churn
// adversaries, which the reference interpreter does not model: the
// reference there is the event engine with every hint ignored. It pins
// the fault edges of parking — a parked node that crashes, one that comes
// back with or without its state, a membership change due while every
// running node is parked.
func TestIdleHintSoundnessFaults(t *testing.T) {
	faults := []string{"+crash:0.2", "+crashrec:0.2:9", "+crashrec:0.2:9:keep", "+churn:0.3:6"}
	// A faulty run that loses its token or its leader spins to the round cap
	// on the hint-blind side; 512 rounds hold every crash and recovery of
	// the schedules above and some forty churn periods.
	forEachIdleCell(t, idleGraphs(t, false), faults, 1<<9, func(t *testing.T, g *graph.Graph, algo string, ro core.RunOpts) {
		ro.Shards = 1
		restore := sim.IgnoreIdleHints()
		unhinted, err := core.Run(g, algo, ro)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		runIdleLayouts(t, g, algo, ro, unhinted)
	})
}

// waitProto wakes, idles until round `until` (sim.Forever: for good) and
// then halts as a non-leader; steps counts its Round calls. With lie set
// the promise is false: the node would decide at round 5.
type waitProto struct {
	until int
	lie   bool
	steps *int
}

func (p waitProto) New(sim.NodeInfo) sim.Process { return p }
func (waitProto) Start(*sim.Context)             {}

func (p waitProto) Round(c *sim.Context, _ []sim.Message) {
	*p.steps++
	switch {
	case p.lie && c.Round() == 5:
		c.Decide(sim.NonLeader)
	case c.Round() >= p.until:
		c.Decide(sim.NonLeader)
		c.Halt()
		return
	}
	c.IdleUntil(p.until)
}

// runWait runs waitProto on an 8-ring, through the reference interpreter
// or the engine, and returns the Result with the number of Round calls it
// took.
func runWait(t *testing.T, run func(sim.Config, sim.Protocol) (*sim.Result, error), p waitProto, cfg sim.Config) (*sim.Result, int) {
	t.Helper()
	steps := 0
	p.steps = &steps
	cfg.Graph = graph.Ring(8)
	res, err := run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res, steps
}

// TestIdleUntilSkipsSteps: a parked node costs no steps, virtual time
// jumps to the end of the promise, and the Result is the reference's.
func TestIdleUntilSkipsSteps(t *testing.T) {
	dense, denseSteps := runWait(t, sim.RunReference, waitProto{until: 100}, sim.Config{})
	for _, shards := range []int{1, 3} {
		event, steps := runWait(t, sim.Run, waitProto{until: 100}, sim.Config{Shards: shards})
		if !reflect.DeepEqual(event, dense) {
			t.Errorf("shards=%d: event %+v, reference %+v", shards, event, dense)
		}
		if steps != 2*8 || denseSteps != 100*8 {
			t.Errorf("shards=%d: %d steps (reference %d), want 16 (800): round 1 and round 100 only", shards, steps, denseSteps)
		}
	}
	if !dense.Halted || dense.Rounds != 100 {
		t.Errorf("reference run: halted=%v rounds=%d, want halted at 100", dense.Halted, dense.Rounds)
	}
}

// TestIdleForeverHitsRoundCap: nodes that idle for good with nothing in
// flight can never be roused. Stepping them would reach the round cap, so
// that is what the event engine reports — without stepping them.
func TestIdleForeverHitsRoundCap(t *testing.T) {
	dense, _ := runWait(t, sim.RunReference, waitProto{until: sim.Forever}, sim.Config{MaxRounds: 300})
	if !dense.HitRoundCap || dense.Rounds != 300 {
		t.Fatalf("reference run: cap=%v rounds=%d, want the cap at 300", dense.HitRoundCap, dense.Rounds)
	}
	for _, shards := range []int{1, 3} {
		event, steps := runWait(t, sim.Run, waitProto{until: sim.Forever}, sim.Config{Shards: shards, MaxRounds: 300})
		if !reflect.DeepEqual(event, dense) {
			t.Errorf("shards=%d: event %+v, reference %+v", shards, event, dense)
		}
		if steps != 8 {
			t.Errorf("shards=%d: %d steps, want 8", shards, steps)
		}
	}
}

// TestIdleUntilIgnoredByAsync: ASYNC has no round timers to drop, and a
// hint must not become one — nothing steps the waiting nodes again.
func TestIdleUntilIgnoredByAsync(t *testing.T) {
	res, steps := runWait(t, sim.Run, waitProto{until: 100}, sim.Config{Model: sim.ModelSpec{Mode: sim.ASYNC}})
	if steps != 8 || res.Rounds != 1 || res.Halted {
		t.Errorf("steps=%d rounds=%d halted=%v, want 8 steps, quiescent at tick 1, nobody halted", steps, res.Rounds, res.Halted)
	}
}

// TestReferenceCatchesFalseHint shows the oracle at work: a protocol that
// breaks its promise runs differently on the reference and on the engine,
// which is what TestIdleHintSoundness would report for an algorithm in
// internal/core.
func TestReferenceCatchesFalseHint(t *testing.T) {
	dense, _ := runWait(t, sim.RunReference, waitProto{until: 100, lie: true}, sim.Config{})
	event, _ := runWait(t, sim.Run, waitProto{until: 100, lie: true}, sim.Config{})
	if dense.LastActive != 5 || event.LastActive != 100 {
		t.Errorf("a false hint went unnoticed (want the round-5 decision on the reference only):\nreference: %+v\nevent:     %+v", dense, event)
	}
}

// TestAllocBudgetDFSSparse pins the parked path: dfs on torus:32x32 with
// one node awake spends nearly all of its ~12 k rounds waiting out 2^ID
// step periods, declared with Context.IdleUntil. Parking a node, queueing
// the timer that ends its promise (far ones through the wheel's overflow
// heap and its recycled buckets) and jumping over the rounds in between
// must not allocate. The hint-blind engine runs the same protocol without
// any of that — every awake node keeps its round timers — so its count is
// the protocol's own (agent tables and tokens, ~18 objects a node): a warm
// hinted run may exceed it by a constant, never by something that grows
// with the rounds or the ticks.
func TestAllocBudgetDFSSparse(t *testing.T) {
	g := graph.Torus(32, 32)
	wake := make([]int, g.N())
	for i := range wake {
		wake[i] = sim.WakeOnMessage
	}
	wake[0] = 1
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(3)))
	prep, err := core.Prepare(g, "dfs")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	allocs := func() (perRun float64, rounds int) {
		run := func() {
			err := prep.RunInto(core.RunOpts{Seed: 7, IDs: ids, Wake: wake, MaxRounds: 1 << 17}, &res)
			if err != nil {
				t.Fatal(err)
			}
			if !res.UniqueLeader() {
				t.Fatal("election failed")
			}
		}
		run() // warm the Runner's buffers
		return testing.AllocsPerRun(3, run), res.Rounds
	}
	restore := sim.IgnoreIdleHints()
	blind, rounds := allocs()
	restore()
	hinted, hintedRounds := allocs()
	if hintedRounds != rounds {
		t.Fatalf("hinted run took %d rounds, hint-blind run %d", hintedRounds, rounds)
	}
	if extra := hinted - blind; extra >= 32 {
		t.Errorf("dfs on torus:32x32, %d rounds: %.0f allocations a run, %.0f over the hint-blind run's %.0f; budget < 32 over",
			rounds, hinted, extra, blind)
	}
	t.Logf("dfs on torus:32x32, %d rounds: hinted %.0f, hint-blind %.0f allocations a run", rounds, hinted, blind)
}
