package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// shardResultBytes extends resultBytes with the fault-cell fields, which
// the fault matrix must also reproduce byte-for-byte at every shard
// count.
func shardResultBytes(t *testing.T, res *sim.Result) string {
	t.Helper()
	return fmt.Sprintf("%s crashes=%d recov=%d dropped=%d crashed=%v",
		resultBytes(t, res), res.Crashes, res.Recoveries, res.Dropped, res.Crashed)
}

// TestShardMatrixAllAlgorithms is the determinism matrix: every
// registered algorithm × execution model × fault schedule must produce
// byte-identical results at shards ∈ {1, 2, 4, 8}. The single-shard run
// is the reference; the matrix covers both synchronous modes and the
// asynchronous model with a non-FIFO random adversary.
func TestShardMatrixAllAlgorithms(t *testing.T) {
	g, err := graph.RandomConnected(24, 72, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	models := []string{"local", "congest", "async+random:4"}
	faults := []string{"", "crash:0.2", "crashrec:0.1:5"}
	for _, algo := range Names() {
		for _, model := range models {
			for _, fault := range faults {
				spec := model
				if fault != "" {
					spec += "+" + fault
				}
				t.Run(algo+"/"+spec, func(t *testing.T) {
					m, err := sim.ParseModel(spec)
					if err != nil {
						t.Fatal(err)
					}
					run := func(shards int) string {
						res, err := Run(g, algo, RunOpts{
							Seed:  5,
							IDs:   sim.PermutationIDs(g.N(), rand.New(rand.NewSource(5))),
							Model: m, MaxRounds: 1 << 12,
							WatchEdges: [][2]int{{0, 1}}, CountPerEdge: true,
							Shards: shards,
						})
						if err != nil {
							t.Fatal(err)
						}
						return shardResultBytes(t, res)
					}
					ref := run(1)
					for _, shards := range []int{2, 4, 8} {
						if got := run(shards); got != ref {
							t.Errorf("shards=%d diverges:\n1: %s\n%d: %s", shards, ref, shards, got)
						}
					}
				})
			}
		}
	}
}

// TestThreeWayEngineDifferential runs representative algorithms through
// the sharded engine at several counts and the single-shard event engine
// on small ring, complete and dumbbell instances, in the three timing
// models, and requires identical transcripts. (Its third leg, against the
// round-by-round reference, is internal/sim's TestIdleHintSoundness.)
func TestThreeWayEngineDifferential(t *testing.T) {
	graphs := map[string]*graph.Graph{"ring:32": graph.Ring(32), "complete:16": graph.Complete(16)}
	db, err := graph.FromSpec("dumbbell:16:40", 3)
	if err != nil {
		t.Fatal(err)
	}
	graphs["dumbbell:16:40"] = db
	algos := []string{"leastel", "flood", "kingdom", "cluster"}
	models := []string{"congest", "local", "async+random:3"}
	for gname, g := range graphs {
		if g.N() > 64 {
			t.Fatalf("%s: differential graphs must stay ≤ 64 nodes, got %d", gname, g.N())
		}
		for _, algo := range algos {
			for _, model := range models {
				t.Run(gname+"/"+algo+"/"+model, func(t *testing.T) {
					m, err := sim.ParseModel(model)
					if err != nil {
						t.Fatal(err)
					}
					base := RunOpts{
						Seed:  9,
						IDs:   sim.PermutationIDs(g.N(), rand.New(rand.NewSource(9))),
						Model: m, MaxRounds: 1 << 12,
						WatchEdges: [][2]int{{0, 1}}, CountPerEdge: true,
					}
					run := func(ro RunOpts) string {
						res, err := Run(g, algo, ro)
						if err != nil {
							t.Fatal(err)
						}
						return shardResultBytes(t, res)
					}
					event := run(base)
					for _, shards := range []int{2, 4, 8} {
						ro := base
						ro.Shards = shards
						if got := run(ro); got != event {
							t.Errorf("sharded(%d) vs event:\nevent:   %s\nsharded: %s", shards, event, got)
						}
					}
				})
			}
		}
	}
}
