package core

import (
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// permutations returns all permutations of 0..n-1 (n <= 5 in these tests).
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, tail := range permutations(n - 1) {
		for pos := 0; pos <= len(tail); pos++ {
			p := make([]int, 0, n)
			p = append(p, tail[:pos]...)
			p = append(p, n-1)
			p = append(p, tail[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

// TestDeterministicExhaustiveIDAssignments runs the deterministic
// algorithms on small graphs under EVERY ID assignment (all permutations of
// 1..n onto nodes): the paper's universality means no assignment may break
// them, and each run is held to its Table 1 row, the fixed winner of dfs,
// flood and kingdom-d included (mustRun).
func TestDeterministicExhaustiveIDAssignments(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(4), graph.Ring(5), graph.Star(5), graph.Complete(4),
		mustEdges(t, 4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}), // a diamond
	}
	for _, algo := range []string{"dfs", "kingdom", "kingdom-d", "flood"} {
		for _, g := range graphs {
			for _, perm := range permutations(g.N()) {
				ids := make([]int64, g.N())
				for i, p := range perm {
					ids[i] = int64(p) + 1
				}
				mustRun(t, g, algo, RunOpts{Seed: 1, IDs: ids, MaxRounds: 1 << 14})
			}
		}
	}
}

// TestDeterministicExhaustivePortMappings: reshuffle ports many times on a
// fixed small graph — port numbering must never affect correctness
// (mustRun).
func TestDeterministicExhaustivePortMappings(t *testing.T) {
	base := graph.Complete(5)
	rng := rand.New(rand.NewSource(77))
	for _, algo := range []string{"dfs", "kingdom", "kingdom-d"} {
		for trial := 0; trial < 30; trial++ {
			g := base.Clone()
			g.ShufflePorts(rng)
			mustRun(t, g, algo, RunOpts{Seed: 1, IDs: sim.SequentialIDs(5, 1), MaxRounds: 1 << 14})
		}
	}
}

func mustEdges(t *testing.T, n int, edges [][2]int) *graph.Graph {
	t.Helper()
	g, err := graph.NewFromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRandomizedOnExpanders: the [14] context — randomized elections on
// expander-like families (regular graphs, hypercubes, complete bipartite),
// each run held to mustRun.
func TestRandomizedOnExpanders(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	reg, err := graph.RandomRegular(32, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []*graph.Graph{reg, graph.Hypercube(5), graph.CompleteBipartite(10, 12), graph.Caterpillar(8, 3)}
	for _, g := range graphs {
		for _, algo := range []string{"leastel", "leastel-estimate", "cluster", "lasvegas"} {
			for s := int64(0); s < 3; s++ {
				mustRun(t, g, algo, RunOpts{Seed: s, MaxRounds: 1 << 15})
			}
		}
	}
}

// TestAnonymousRandomizedAlgorithms: §2 — the randomized algorithms also
// apply to anonymous networks, where the check holds them to their rows.
func TestAnonymousRandomizedAlgorithms(t *testing.T) {
	graphs := []*graph.Graph{graph.Ring(16), graph.Complete(10), graph.Grid(4, 4)}
	for _, algo := range []string{"leastel", "leastel-loglog", "leastel-estimate", "cluster", "lasvegas", "spanner-le"} {
		for _, g := range graphs {
			for s := int64(0); s < 3; s++ {
				if _, err := Run(g, algo, RunOpts{Seed: s, Anonymous: true, MaxRounds: 1 << 15}); err != nil {
					t.Fatalf("%s anonymous on %s: %v", algo, g.Name(), err)
				}
			}
		}
	}
}

// TestLocalModeMatchesCongest: the algorithms fit CONGEST, so running them
// in LOCAL mode must not change behaviour at all.
func TestLocalModeMatchesCongest(t *testing.T) {
	g := graph.Torus(4, 4)
	for _, algo := range []string{"leastel", "cluster", "kingdom"} {
		ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(1)))
		a, err := Run(g, algo, RunOpts{Seed: 2, IDs: ids})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(g, algo, RunOpts{Seed: 2, IDs: ids, Model: sim.ModelSpec{Mode: sim.LOCAL}})
		if err != nil {
			t.Fatal(err)
		}
		if a.Messages != b.Messages || a.Rounds != b.Rounds {
			t.Errorf("%s: LOCAL diverges from CONGEST: %d/%d msgs, %d/%d rounds",
				algo, a.Messages, b.Messages, a.Rounds, b.Rounds)
		}
	}
}
