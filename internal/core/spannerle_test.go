package core

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// spannerBuild runs only the Baswana–Sen construction and records each
// node's spanner ports.
type spannerBuild struct {
	k  int
	mu *sync.Mutex
	// ports[id] = spanner ports of the node with that identity.
	ports map[int64][]int
}

func (b *spannerBuild) New(info sim.NodeInfo) sim.Process {
	p := &spannerBuildProc{proto: b}
	p.bs = p.bs.renewed(b.k, info)
	return p
}

type spannerBuildProc struct {
	proto *spannerBuild
	bs    baswanaSen
	start int
	done  bool
}

func (p *spannerBuildProc) Start(c *sim.Context) {
	p.bs.cluster = c.ID()
	p.start = c.Round()
}

func (p *spannerBuildProc) Round(c *sim.Context, inbox []sim.Message) {
	if p.done {
		return
	}
	if p.bs.step(c, c.Round()-p.start, inbox) {
		p.done = true
		p.proto.mu.Lock()
		p.proto.ports[c.ID()] = slices.Clone(p.bs.spannerPorts())
		p.proto.mu.Unlock()
		c.Decide(sim.NonLeader)
		c.Halt()
	}
}

// spannerRounds returns the construction's fixed schedule length for
// parameter k: k−1 iterations of i+3 rounds plus a 3-round final
// iteration.
func spannerRounds(k int) int {
	t := 0
	for i := 0; i <= k-2; i++ {
		t += i + 3
	}
	return t + 3
}

// buildSpanner runs the construction on g and returns the spanner subgraph.
func buildSpanner(t *testing.T, g *graph.Graph, k int, seed int64) *graph.Graph {
	t.Helper()
	proto := &spannerBuild{k: k, mu: &sync.Mutex{}, ports: make(map[int64][]int)}
	ids := make([]int64, g.N())
	for i := range ids {
		ids[i] = int64(i) + 1
	}
	res, err := sim.Run(sim.Config{
		Graph: g, IDs: ids, Seed: seed,
		Know:      sim.Knowledge{N: g.N()},
		MaxRounds: spannerRounds(k) + 4,
	}, proto)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("construction did not finish on schedule")
	}
	edgeSet := make(map[[2]int]bool)
	for u := 0; u < g.N(); u++ {
		for _, p := range proto.ports[int64(u)+1] {
			v := g.Neighbor(u, p)
			a, b := u, v
			if a > b {
				a, b = b, a
			}
			edgeSet[[2]int{a, b}] = true
		}
	}
	var edges [][2]int
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sg, err := graph.NewFromEdges(g.N(), edges)
	if err != nil {
		t.Fatal(err)
	}
	// Symmetry check: both endpoints of every spanner edge marked it.
	for u := 0; u < g.N(); u++ {
		marked := make(map[int]bool)
		for _, p := range proto.ports[int64(u)+1] {
			marked[g.Neighbor(u, p)] = true
		}
		for v := range marked {
			found := false
			for _, q := range proto.ports[int64(v)+1] {
				if g.Neighbor(v, q) == u {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge (%d,%d) marked asymmetrically", u, v)
			}
		}
	}
	return sg
}

// TestSpannerSchedule: every node finishes the construction in the last
// round of its fixed schedule.
func TestSpannerSchedule(t *testing.T) {
	for k, want := range map[int]int{2: 6, 4: 15} {
		if got := spannerRounds(k); got != want {
			t.Errorf("spannerRounds(%d) = %d, want %d", k, got, want)
		}
		proto := &spannerBuild{k: k, mu: &sync.Mutex{}, ports: make(map[int64][]int)}
		res, err := sim.Run(sim.Config{
			Graph: graph.Complete(8), IDs: []int64{1, 2, 3, 4, 5, 6, 7, 8}, Seed: 1,
			Know: sim.Knowledge{N: 8}, MaxRounds: want + 4,
		}, proto)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Halted || res.Rounds != want {
			t.Errorf("k=%d: construction ended in round %d (halted %v), want %d", k, res.Rounds, res.Halted, want)
		}
	}
}

func TestSpannerPreservesConnectivityAndStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tt := range []struct {
		name string
		g    *graph.Graph
		k    int
	}{
		{"complete-20-k2", graph.Complete(20), 2},
		{"complete-40-k3", graph.Complete(40), 3},
		{"dense-random-k2", mustRandomGraph(t, rng, 60, 600), 2},
		{"dense-random-k3", mustRandomGraph(t, rng, 80, 1200), 3},
		{"ring", graph.Ring(30), 3},
		{"star", graph.Star(25), 2},
		{"hypercube", graph.Hypercube(5), 2},
	} {
		t.Run(tt.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				sg := buildSpanner(t, tt.g, tt.k, seed)
				if !sg.Connected() {
					t.Fatal("spanner disconnected")
				}
				for u := 0; u < tt.g.N(); u++ {
					if sg.Degree(u) == 0 {
						t.Fatalf("node %d has no spanner edge", u)
					}
				}
				// Stretch: for every original edge (u,v), the spanner
				// distance must be at most 2k-1.
				limit := 2*tt.k - 1
				for u := 0; u < tt.g.N(); u++ {
					dist := sg.BFS(u)
					for p := 0; p < tt.g.Degree(u); p++ {
						v := tt.g.Neighbor(u, p)
						if dist[v] > limit {
							t.Fatalf("edge (%d,%d): spanner distance %d > %d", u, v, dist[v], limit)
						}
					}
				}
			}
		})
	}
}

func TestSpannerSparsifiesDenseGraphs(t *testing.T) {
	// On K_n with k=2 the expected size is O(n^1.5); require a real cut
	// versus the original n(n-1)/2.
	g := graph.Complete(64)
	var total int
	for seed := int64(0); seed < 3; seed++ {
		sg := buildSpanner(t, g, 2, seed)
		total += sg.M()
	}
	avg := total / 3
	if avg >= g.M()/2 {
		t.Errorf("spanner size %d not sparser than half of m=%d", avg, g.M())
	}
}

func mustRandomGraph(t *testing.T, rng *rand.Rand, n, m int) *graph.Graph {
	t.Helper()
	g, err := graph.RandomConnected(n, m, rng)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
