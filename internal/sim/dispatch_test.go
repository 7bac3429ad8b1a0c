package sim_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// dispatchRoutes are the ways a multi-shard run can dispatch its ticks:
// every one to the shard pool, every one inline on the coordinator, and
// the per-tick choice — at the shipped threshold, which on the graph
// below mixes both routes within one synchronous run, and at a low one
// that mixes them under the asynchronous model's thinner ticks too.
var dispatchRoutes = []struct {
	name string
	work int // the threshold to run under; negative keeps the shipped one
}{
	{"pooled", 0},
	{"inline", math.MaxInt},
	{"adaptive", -1},
	{"adaptive-low", 64},
}

// setRoute installs a route's threshold and returns the undo.
func setRoute(work int) (restore func()) {
	if work < 0 {
		return func() {}
	}
	return sim.SetMinPooledWork(work)
}

// TestDispatchInvariance pins the claim the adaptive tick rests on: how a
// tick is dispatched is unobservable. Every registered algorithm under
// every timing model and fault class must return the same Result —
// statuses, rounds, messages, bits, first crossing, fault counters —
// whichever route its ticks take. Run it with -race -cpu 1,2,4: on one
// core the run has no pool and the three routes coincide, above that the
// race detector watches the pooled one.
func TestDispatchInvariance(t *testing.T) {
	g := graph.Torus(12, 12) // 144 nodes: 720 units of due work on a busy synchronous tick, a few on a quiet one
	ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(5)))
	for _, algo := range core.Names() {
		for _, model := range []string{"congest", "local", "async+random:4"} {
			for _, fault := range []string{"", "+crash:0.1", "+crashrec:0.1:5"} {
				t.Run(algo+"/"+model+fault, func(t *testing.T) {
					m, err := sim.ParseModel(model + fault)
					if err != nil {
						t.Fatal(err)
					}
					var want *sim.Result
					for _, route := range dispatchRoutes {
						restore := setRoute(route.work)
						got, err := core.Run(g, algo, core.RunOpts{
							Seed: 5, IDs: ids, Model: m, MaxRounds: 1 << 11,
							WatchEdges: [][2]int{{0, 1}, {70, 71}},
							Shards:     3,
						})
						restore()
						if err != nil {
							t.Fatalf("%s: %v", route.name, err)
						}
						if want == nil {
							want = got
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s diverges from %s:\ngot:  %+v\nwant: %+v",
								route.name, dispatchRoutes[0].name, got, want)
						}
					}
				})
			}
		}
	}
}

// twiceProto breaks the per-port send budget (eight messages a round) at
// every node in round 2, after a first round busy enough to go to the pool.
type twiceProto struct{}

func (twiceProto) New(sim.NodeInfo) sim.Process { return twiceProc{} }

type twiceProc struct{}

type unit struct{}

func (unit) Bits() int { return 1 }

func (twiceProc) Start(*sim.Context) {}

func (twiceProc) Round(c *sim.Context, _ []sim.Message) {
	c.Broadcast(unit{})
	for i := 0; i < 8 && c.Round() == 2; i++ {
		c.Send(0, unit{})
	}
}

// TestDispatchInvarianceModelViolation: when many nodes in several shards
// violate the model in one tick, every route reports the same one.
func TestDispatchInvarianceModelViolation(t *testing.T) {
	g := graph.Torus(12, 12)
	want := ""
	for _, route := range dispatchRoutes {
		restore := setRoute(route.work)
		_, err := sim.Run(sim.Config{Graph: g, Seed: 3, Shards: 3}, twiceProto{})
		restore()
		if !errors.Is(err, sim.ErrDoubleSend) {
			t.Fatalf("%s: want ErrDoubleSend, got %v", route.name, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("%s picks a different violator:\ngot  %s\nwant %s", route.name, err, want)
		}
	}
}

// TestEffectiveShards tables the one rule every layer's shard count goes
// through.
func TestEffectiveShards(t *testing.T) {
	for _, c := range []struct {
		shards, n, procs int
		want             int
	}{
		// 0: the engine decides — one shard per 4096 nodes, at most procs.
		{0, 24, 2, 1},
		{0, 4096, 2, 1},
		{0, 4096, 64, 1},
		{0, 8191, 8, 1},
		{0, 8192, 1, 1},
		{0, 8192, 2, 2},
		{0, 8192, 8, 2},
		{0, 65536, 2, 2},
		{0, 65536, 8, 8},
		{0, 65536, 32, 16},
		{0, 1 << 20, 128, 64},
		// 1 forces one shard, k > 1 exactly k (up to n and the cap).
		{1, 65536, 8, 1},
		{2, 24, 1, 2},
		{8, 24, 2, 8},
		{100, 24, 2, 24},
		{64, 65536, 2, 64},
		{65, 65536, 2, 64},
		{4000, 4000, 2, 64},
		{1 << 30, 200000, 2, 64},
		{1 << 30, 3, 2, 3},
		// Negative: one per core.
		{-1, 24, 2, 2},
		{-1, 24, 1, 1},
		{-7, 65536, 8, 8},
		{-1, 4, 8, 4},
		{-1, 1 << 20, 128, 64},
		// Only non-empty ranges count: k ranges of ⌈n/k⌉ nodes can cover n
		// before the k-th starts (path:5 at -shards 4 once crashed on that).
		{4, 5, 2, 3},
		{5, 7, 2, 4},
		{6, 7, 2, 4},
		{6, 9, 2, 5},
		{7, 9, 2, 5},
		{8, 9, 2, 5},
		{9, 9, 2, 9},
		{7, 24, 2, 6},
		{-1, 5, 4, 3},
		{48, 65, 2, 33},
	} {
		if got := sim.EffectiveShards(c.shards, c.n, c.procs); got != c.want {
			t.Errorf("EffectiveShards(%d, n=%d, procs=%d) = %d, want %d",
				c.shards, c.n, c.procs, got, c.want)
		}
		// A resolved count resolves to itself: core.Prepared hands the
		// engine the count it resolved, to give every shard a box shelf.
		if got := sim.EffectiveShards(c.want, c.n, c.procs); got != c.want {
			t.Errorf("EffectiveShards(%d, n=%d, procs=%d) = %d: a resolved count moved",
				c.want, c.n, c.procs, got)
		}
	}
}

// TestSlotRoutes is the shard matrix with the landing of broadcast slots
// forced each way: every registered algorithm × execution model × fault
// schedule on core's matrix graph must return the same Result when every
// tick gathers and when every tick walks the broadcaster lists, at
// shards ∈ {1, 2, 4, 8}, with ticks dispatched to the pool and inline.
// The single-shard gathering run is the reference. Under -race the
// pooled runs have shards reading one another's slots after the barrier.
func TestSlotRoutes(t *testing.T) {
	g, err := graph.RandomConnected(24, 72, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name  string
		share float64
	}{{"gather", 0}, {"walk", math.Inf(1)}}
	for _, algo := range core.Names() {
		for _, model := range []string{"local", "congest", "async+random:4"} {
			for _, fault := range []string{"", "+crash:0.2", "+crashrec:0.1:5"} {
				t.Run(algo+"/"+model+fault, func(t *testing.T) {
					m, err := sim.ParseModel(model + fault)
					if err != nil {
						t.Fatal(err)
					}
					var want *sim.Result
					for _, route := range routes {
						for _, work := range []int{0, math.MaxInt} {
							for _, shards := range []int{1, 2, 4, 8} {
								restoreShare := sim.SetMinGatherShare(route.share)
								restoreWork := sim.SetMinPooledWork(work)
								got, err := core.Run(g, algo, core.RunOpts{
									Seed: 5, IDs: sim.PermutationIDs(g.N(), rand.New(rand.NewSource(5))),
									Model: m, MaxRounds: 1 << 12,
									WatchEdges: [][2]int{{0, 1}},
									Shards:     shards,
								})
								restoreWork()
								restoreShare()
								if err != nil {
									t.Fatalf("%s, work %d, %d shards: %v", route.name, work, shards, err)
								}
								if want == nil {
									want = got
								} else if !reflect.DeepEqual(got, want) {
									t.Errorf("%s, work %d, %d shards diverges from gather at 1 shard:\ngot:  %+v\nwant: %+v",
										route.name, work, shards, got, want)
								}
							}
						}
					}
				})
			}
		}
	}
}
