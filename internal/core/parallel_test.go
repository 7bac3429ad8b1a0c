package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// fixedGraphs is the determinism test matrix: one sparse, one dense, one
// degenerate-diameter family and a torus.
func fixedGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	random, err := graph.RandomConnected(24, 72, rng)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"ring:16":      graph.Ring(16),
		"random:24:72": random,
		"star:12":      graph.Star(12),
		"torus:5x5":    graph.Torus(5, 5),
	}
}

// resultBytes canonicalizes every field of a sim.Result for byte-level
// comparison.
func resultBytes(t *testing.T, res *sim.Result) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(
		"rounds=%d lastActive=%d msgs=%d bits=%d statuses=%v leaders=%v halted=%v cap=%v beforeCross=%d firstCross=%d",
		res.Rounds, res.LastActive, res.Messages, res.Bits,
		res.Statuses, res.Leaders, res.Halted, res.HitRoundCap,
		res.MessagesBeforeCrossing, res.FirstCrossing))
}

// TestParallelMatchesSequential asserts, for every registered algorithm,
// that the multi-core engine (RunOpts.Shards = 3, a count that divides
// none of the graphs) produces byte-identical results to the single-shard
// engine on a fixed graph/seed matrix.
func TestParallelMatchesSequential(t *testing.T) {
	graphs := fixedGraphs(t)
	for _, algo := range Names() {
		for gname, g := range graphs {
			for _, seed := range []int64{1, 7, 42} {
				ids := sim.PermutationIDs(g.N(), rand.New(rand.NewSource(seed)))
				base := RunOpts{
					Seed: seed, IDs: ids, MaxRounds: 1 << 17,
					// Exercise the lower-bound instrument too: it shares
					// state with message delivery, so it must also be
					// identical across shards.
					WatchEdges: [][2]int{{0, 1}},
				}
				base.Shards = 1
				seq, err := Run(g, algo, base)
				if err != nil {
					t.Fatalf("%s on %s seed %d (1 shard): %v", algo, gname, seed, err)
				}
				par := base
				par.Shards = 3
				pres, err := Run(g, algo, par)
				if err != nil {
					t.Fatalf("%s on %s seed %d (3 shards): %v", algo, gname, seed, err)
				}
				sb, pb := resultBytes(t, seq), resultBytes(t, pres)
				if string(sb) != string(pb) {
					t.Errorf("%s on %s seed %d: 3-shard result differs\nseq: %s\npar: %s",
						algo, gname, seed, sb, pb)
				}
			}
		}
	}
}

// TestPreparedMatchesRun asserts that the batching entry point (one
// Prepared: shared sim.Runner, reused engine state) is observationally
// identical to independent Run calls.
func TestPreparedMatchesRun(t *testing.T) {
	graphs := fixedGraphs(t)
	for _, algo := range Names() {
		for gname, g := range graphs {
			prep, err := Prepare(g, algo)
			if err != nil {
				t.Fatalf("%s on %s: Prepare: %v", algo, gname, err)
			}
			for _, seed := range []int64{1, 7, 42} {
				ro := RunOpts{
					Seed:      seed,
					IDs:       sim.PermutationIDs(g.N(), rand.New(rand.NewSource(seed))),
					MaxRounds: 1 << 17,
				}
				batch := new(sim.Result)
				if err := prep.RunInto(ro, batch); err != nil {
					t.Fatalf("%s on %s seed %d: Prepared.RunInto: %v", algo, gname, seed, err)
				}
				solo, err := Run(g, algo, ro)
				if err != nil {
					t.Fatalf("%s on %s seed %d: %v", algo, gname, seed, err)
				}
				sb, bb := resultBytes(t, solo), resultBytes(t, batch)
				if string(sb) != string(bb) {
					t.Errorf("%s on %s seed %d: Prepared result differs\nrun:      %s\nprepared: %s",
						algo, gname, seed, sb, bb)
				}
			}
		}
	}
}
