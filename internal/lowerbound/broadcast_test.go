package lowerbound

import (
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

func runFlood(t *testing.T, g *graph.Graph, source int, seed int64) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Graph:     g,
		Seed:      seed,
		Wake:      floodWake(g.N(), source),
		MaxRounds: 4 * g.N(),
	}, flood{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFloodReachesEveryone(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	graphs := []*graph.Graph{
		graph.Path(20), graph.Ring(20), graph.Star(20), graph.Complete(12),
		graph.Grid(4, 5), graph.Hypercube(4),
	}
	g, err := graph.RandomConnected(40, 120, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, g)
	for _, gr := range graphs {
		src := rng.Intn(gr.N())
		res := runFlood(t, gr, src, 7)
		if got := informed(res); got != gr.N() {
			t.Errorf("%s: informed %d of %d", gr.Name(), got, gr.N())
		}
		if !reachedMajority(res) {
			t.Errorf("%s: majority not reached", gr.Name())
		}
		// Flooding sends exactly one broadcast per node: degree sum = 2m.
		if res.Messages != int64(2*gr.M()) {
			t.Errorf("%s: messages %d, want 2m=%d", gr.Name(), res.Messages, 2*gr.M())
		}
	}
}

func TestFloodTimeIsEccentricity(t *testing.T) {
	g := graph.Path(30)
	res := runFlood(t, g, 0, 3)
	// Source at the path end: the last delivery happens at round ecc+1.
	if res.LastActive < 29 || res.LastActive > 31 {
		t.Errorf("LastActive=%d, want ≈ 30", res.LastActive)
	}
}

func TestInformedCounting(t *testing.T) {
	res := &sim.Result{Statuses: []sim.Status{sim.Leader, sim.NonLeader, sim.Leader}}
	if informed(res) != 2 {
		t.Error("bad informed count")
	}
	if !reachedMajority(res) {
		t.Error("2 of 3 is a majority")
	}
	res2 := &sim.Result{Statuses: []sim.Status{sim.Leader, sim.NonLeader}}
	if reachedMajority(res2) {
		t.Error("1 of 2 is not a strict majority")
	}
}
