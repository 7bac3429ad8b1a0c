package core

import (
	"errors"
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// checkGraphs are the matrix's fifteen topologies, as `ule -graph` specs.
var checkGraphs = []string{
	"path:2", "path:17", "ring:64", "star:12", "complete:12",
	"grid:5x6", "torus:5x5", "hypercube:4", "bipartite:5x7", "caterpillar:8:3",
	"random:30:60", "random:50:300", "lollipop:24:80", "dumbbell:16:40", "cliquecycle:32:8",
}

// checkModels are the matrix's execution models, as `ule -model` strings.
var checkModels = []string{"congest", "local", "async", "async+random:4", "async+fifo:4", "async+random:8", "async+fifo:8"}

type wakeSchedule struct {
	name string
	draw func(n int, rng *rand.Rand) []int
}

// checkWakes are the matrix's start schedules, drawn from the run's seed:
// the simultaneous start, then the staggered ones of the wake axis —
// random:8, stagger:3, adversarial (one node wakes, the rest on a message)
// — and mixed:10, where a random half wakes in rounds 1-10 and the rest
// on a message.
var checkWakes = []wakeSchedule{
	{"simultaneous", func(int, *rand.Rand) []int { return nil }},
	{"random:8", func(n int, rng *rand.Rand) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(8)
		}
		return w
	}},
	{"stagger:3", func(n int, _ *rand.Rand) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + i%3
		}
		return w
	}},
	{"adversarial", func(n int, rng *rand.Rand) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = sim.WakeOnMessage
		}
		w[rng.Intn(n)] = 1
		return w
	}},
	{"mixed:10", func(n int, rng *rand.Rand) []int {
		w := make([]int, n)
		for i := range w {
			w[i] = sim.WakeOnMessage
			if rng.Intn(2) == 0 {
				w[i] = 1 + rng.Intn(10)
			}
		}
		w[rng.Intn(n)] = 1
		return w
	}},
}

// TestCheckMatrix runs every registered row on the fifteen graphs under
// the seven fault-free models, with small and random IDs, at four seeds,
// with a simultaneous start and, for a row that says AnyStart, under one
// staggered schedule per graph and seed (each schedule meets every graph
// and every seed), and requires the check to flag none. A judged run of
// a probability-1 row with small IDs must also end before the round cap
// (random IDs excepted: dfs takes m·2^minID rounds).
func TestCheckMatrix(t *testing.T) {
	var (
		p   Prepared
		res sim.Result
	)
	for gi, spec := range checkGraphs {
		for seed := int64(0); seed < 4; seed++ {
			g, err := graph.FromSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range Names() {
				if err := p.Rebind(g, algo); err != nil {
					t.Fatal(err)
				}
				b := p.Spec().Bound
				wakes := checkWakes[:1]
				if k := 1 + (gi+int(seed))%4; b.AnyStart {
					wakes = []wakeSchedule{checkWakes[0], checkWakes[k]}
				}
				for _, model := range checkModels {
					m, err := sim.ParseModel(model)
					if err != nil {
						t.Fatal(err)
					}
					for _, wake := range wakes {
						for _, small := range []bool{true, false} {
							ro := RunOpts{Seed: seed, SmallIDs: small, MaxRounds: 1 << 14, Model: m,
								Wake: wake.draw(g.N(), sim.NewRand(seed))}
							judged := p.judges(ro)
							if ro.Wake != nil && !judged {
								continue
							}
							err := p.RunInto(ro, &res)
							if err == nil && small && res.HitRoundCap && b.Success == Always && judged {
								err = errors.New("hit the round cap")
							}
							if err != nil {
								t.Errorf("%s %s %s wake %s seed %d small IDs %v: %v", algo, spec, model, wake.name, seed, small, err)
							}
						}
					}
				}
			}
		}
	}
}

// TestCheckShrunkCandidates: with Options.FScale < 1 leastel draws f < n
// candidates and can end with none, which its f = n row does not promise
// against; the check must not flag those runs, and still flags a second
// leader.
func TestCheckShrunkCandidates(t *testing.T) {
	p, err := Prepare(graph.Ring(16), "leastel")
	if err != nil {
		t.Fatal(err)
	}
	var res sim.Result
	leaderless := 0
	for seed := int64(0); seed < 40; seed++ {
		ro := RunOpts{Seed: seed, Opt: Options{FScale: 0.01}}
		if err := p.RunInto(ro, &res); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.LeaderCount() == 0 {
			leaderless++
		}
		if res.LeaderCount() == 1 {
			res.Leaders = append(res.Leaders, (res.Leaders[0]+1)%16)
			if err := p.check(ro, nil, &res); !errors.Is(err, ErrGuarantee) {
				t.Fatalf("seed %d: two leaders not flagged: %v", seed, err)
			}
		}
	}
	if leaderless == 0 {
		t.Fatal("no run ended without a candidate; the case is not exercised")
	}
}

// TestCheckShrunkCandidatesOnlyLeastel: FScale shrinks only leastel's
// candidate budget, so on any other probability-1 row it exempts nothing —
// a leaderless run that did not hit its round cap is flagged.
func TestCheckShrunkCandidatesOnlyLeastel(t *testing.T) {
	g := graph.Ring(16)
	for _, name := range Names() {
		if MustGet(name).Bound.Success != Always {
			continue
		}
		p, err := Prepare(g, name)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Result{Statuses: make([]sim.Status, g.N())}
		err = p.check(RunOpts{Opt: Options{FScale: 0.5}}, nil, &res)
		if shrunk := name == "leastel"; shrunk != (err == nil) || (!shrunk && !errors.Is(err, ErrGuarantee)) {
			t.Errorf("%s with FScale 0.5, leaderless: err = %v", name, err)
		}
	}
}

// TestCheckWinner: on a row with a fixed winner, a one-leader run whose
// leader does not hold that ID breaks the row, and one whose leader does
// passes; a row that fixes none is not held to either.
func TestCheckWinner(t *testing.T) {
	g := graph.Ring(8)
	ids := []int64{40, 10, 70, 20, 80, 30, 60, 50} // min at node 1, max at node 4
	oneLeader := func(leader int) *sim.Result {
		res := &sim.Result{Statuses: make([]sim.Status, g.N()), Leaders: []int{leader}}
		for u := range res.Statuses {
			res.Statuses[u] = sim.NonLeader
		}
		res.Statuses[leader] = sim.Leader
		return res
	}
	fixed := 0
	for _, name := range Names() {
		p, err := Prepare(g, name)
		if err != nil {
			t.Fatal(err)
		}
		w := p.Spec().Bound.Winner
		winner, loser := 4, 1 // the nodes holding the row's ID and the other extreme
		if w == MinID {
			winner, loser = 1, 4
		}
		if err := p.check(RunOpts{}, ids, oneLeader(winner)); err != nil {
			t.Errorf("%s (winner %s) electing ID %d: %v", name, w, ids[winner], err)
		}
		if err := p.check(RunOpts{}, ids, oneLeader(loser)); (w != AnyID) != errors.Is(err, ErrGuarantee) {
			t.Errorf("%s (winner %s) electing ID %d: err = %v", name, w, ids[loser], err)
		}
		if w != AnyID {
			fixed++
		}
	}
	if fixed == 0 {
		t.Fatal("no row fixes its winner; the rule is not exercised")
	}
}

// TestCheckJudgesAnyStart: a staggered run is judged on a row that says
// AnyStart — two leaders under a wake schedule break it — and not on one
// that does not.
func TestCheckJudgesAnyStart(t *testing.T) {
	g := graph.Ring(8)
	res := sim.Result{Statuses: make([]sim.Status, g.N()), Leaders: []int{0, 4}}
	ro := RunOpts{Wake: checkWakes[1].draw(g.N(), sim.NewRand(1))}
	for _, name := range Names() {
		p, err := Prepare(g, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.check(ro, nil, &res); p.Spec().Bound.AnyStart != errors.Is(err, ErrGuarantee) {
			t.Errorf("%s (AnyStart %v), two leaders under a staggered start: err = %v", name, p.Spec().Bound.AnyStart, err)
		}
	}
}

// TestCheckMessageCeiling: a deterministic row may send 16 times its
// message bound, at the diameter it was granted, and not one message
// more. 16 is TestCheckMatrix's largest finished synchronous ratio, 12,
// with room to spare; a looser ceiling would pass a protocol that sends
// several times what its row promises, which no run of the matrix shows.
// Each result is built by hand: one leader, every node decided, and no
// IDs, so that only the message rule can flag it.
func TestCheckMessageCeiling(t *testing.T) {
	const slack = 16
	g, err := graph.FromSpec("grid:5x6", 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Result{Statuses: make([]sim.Status, g.N()), Leaders: []int{0}}
	for u := range res.Statuses {
		res.Statuses[u] = sim.NonLeader
	}
	res.Statuses[0] = sim.Leader
	rows := 0
	for _, name := range Names() {
		if !MustGet(name).Deterministic {
			continue
		}
		p, err := Prepare(g, name)
		if err != nil {
			t.Fatal(err)
		}
		var ro RunOpts
		res.Messages = int64(slack * p.Spec().Bound.Msgs.Of(g.N(), g.M(), p.Diameter(ro)))
		if err := p.check(ro, nil, &res); err != nil {
			t.Errorf("%s sending %d messages, its ceiling: %v", name, res.Messages, err)
		}
		res.Messages++
		if err := p.check(ro, nil, &res); !errors.Is(err, ErrGuarantee) {
			t.Errorf("%s sending %d messages, one over its ceiling: err = %v", name, res.Messages, err)
		}
		rows++
	}
	if rows == 0 {
		t.Fatal("no deterministic row; the ceiling is not exercised")
	}
}
