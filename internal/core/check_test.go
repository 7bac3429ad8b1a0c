package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
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

// knownViolations is every run of TestCheckMatrix the check flags, in the
// matrix's order, as "algo graph model seed ids". All are kingdom-d, which
// livelocks under FIFO delays until the round cap (with known D every
// phase floods radius D, and the first-arrival tree repeats, so an
// uncovered kingdom never grows; ROADMAP), plus one random:8 run on
// lollipop:24:80 that finishes above 16·m·log n. Each replays as
// `ule -algo A -graph G -model M -seed S -max-rounds 16384`, with
// -small-ids for "small".
var knownViolations = []string{
	"kingdom-d grid:5x6 async+fifo:8 1 small",
	"kingdom-d torus:5x5 async+fifo:4 0 small",
	"kingdom-d torus:5x5 async+fifo:4 0 random",
	"kingdom-d torus:5x5 async+fifo:4 1 random",
	"kingdom-d random:30:60 async+fifo:4 1 small",
	"kingdom-d lollipop:24:80 async+fifo:4 0 random",
	"kingdom-d lollipop:24:80 async+fifo:4 1 small",
	"kingdom-d lollipop:24:80 async+random:8 1 small",
	"kingdom-d lollipop:24:80 async+fifo:8 1 small",
	"kingdom-d lollipop:24:80 async+fifo:8 1 random",
	"kingdom-d lollipop:24:80 async+fifo:8 2 random",
	"kingdom-d lollipop:24:80 async+fifo:4 3 small",
	"kingdom-d lollipop:24:80 async+fifo:4 3 random",
	"kingdom-d lollipop:24:80 async+fifo:8 3 small",
	"kingdom-d lollipop:24:80 async+fifo:8 3 random",
	"kingdom-d dumbbell:16:40 async+fifo:4 1 random",
	"kingdom-d dumbbell:16:40 async+fifo:8 1 random",
	"kingdom-d dumbbell:16:40 async+fifo:4 3 small",
	"kingdom-d dumbbell:16:40 async+fifo:8 3 small",
	"kingdom-d cliquecycle:32:8 async+fifo:8 0 small",
	"kingdom-d cliquecycle:32:8 async+fifo:4 2 random",
	"kingdom-d cliquecycle:32:8 async+fifo:8 2 random",
	"kingdom-d cliquecycle:32:8 async+fifo:8 3 random",
}

// TestCheckMatrix runs every registered row on the fifteen graphs under
// the seven fault-free models, with small and random IDs, at four seeds,
// all starting simultaneously, and requires the check to flag exactly the
// recorded runs: a new violation fails the test, and so does a fixed one.
func TestCheckMatrix(t *testing.T) {
	var (
		got []string
		p   Prepared
		res sim.Result
	)
	for _, spec := range checkGraphs {
		for seed := int64(0); seed < 4; seed++ {
			g, err := graph.FromSpec(spec, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, algo := range Names() {
				if err := p.Rebind(g, algo); err != nil {
					t.Fatal(err)
				}
				for _, model := range checkModels {
					m, err := sim.ParseModel(model)
					if err != nil {
						t.Fatal(err)
					}
					for _, ids := range []string{"small", "random"} {
						run := fmt.Sprintf("%s %s %s %d %s", algo, spec, model, seed, ids)
						err := p.RunInto(RunOpts{Seed: seed, SmallIDs: ids == "small", MaxRounds: 1 << 14, Model: m}, &res)
						switch {
						case errors.Is(err, ErrGuarantee):
							got = append(got, run)
							t.Logf("%s: %v", run, err)
						case err != nil:
							t.Errorf("%s: %v", run, err)
						}
					}
				}
			}
		}
	}
	for _, v := range got {
		if !slices.Contains(knownViolations, v) {
			t.Errorf("new violation: %s", v)
		}
	}
	for _, v := range knownViolations {
		if !slices.Contains(got, v) {
			t.Errorf("recorded violation no longer happens: %s", v)
		}
	}
}

// TestCheckStaggeredStart: the rows that never break under a staggered
// start keep the check's rules on the zoo and a caterpillar under each of
// the wake axis's staggered schedules — random:8, stagger:3, adversarial
// (one node wakes, the rest on a message) — and adversarialWake's mix.
// The check does not judge these runs itself (a row's guarantees assume a
// simultaneous start, and flood, spanner-le and lasvegas do elect two
// leaders or none here), so the test hands it each run as if it had
// started simultaneously.
func TestCheckStaggeredStart(t *testing.T) {
	wakes := map[string]func(n int, rng *rand.Rand) []int{
		"random:8": func(n int, rng *rand.Rand) []int {
			w := make([]int, n)
			for i := range w {
				w[i] = 1 + rng.Intn(8)
			}
			return w
		},
		"stagger:3": func(n int, _ *rand.Rand) []int {
			w := make([]int, n)
			for i := range w {
				w[i] = 1 + i%3
			}
			return w
		},
		"adversarial": func(n int, rng *rand.Rand) []int {
			w := make([]int, n)
			for i := range w {
				w[i] = sim.WakeOnMessage
			}
			w[rng.Intn(n)] = 1
			return w
		},
		"mixed:10": func(n int, rng *rand.Rand) []int { return adversarialWake(n, 10, rng) },
	}
	var (
		p   Prepared
		res sim.Result
	)
	graphs := testGraphs(t)
	graphs["caterpillar"] = graph.Caterpillar(5, 2)
	for name, g := range graphs {
		for _, algo := range []string{"leastel", "leastel-estimate", "dfs", "kingdom", "kingdom-d"} {
			if err := p.Rebind(g, algo); err != nil {
				t.Fatal(err)
			}
			for wake, draw := range wakes {
				for seed := int64(0); seed < 12; seed++ {
					ro := RunOpts{Seed: seed, SmallIDs: true, MaxRounds: 1 << 17,
						Wake: draw(g.N(), rand.New(rand.NewSource(seed)))}
					err := p.RunInto(ro, &res)
					if err == nil {
						ro.Wake = nil // judged as if it had started simultaneously
						err = p.check(ro, &res)
					}
					if err != nil || res.HitRoundCap {
						t.Errorf("%s on %s, wake %s, seed %d: %v (round cap %v)", algo, name, wake, seed, err, res.HitRoundCap)
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
			if err := p.check(ro, &res); !errors.Is(err, ErrGuarantee) {
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
		err = p.check(RunOpts{Opt: Options{FScale: 0.5}}, &res)
		if shrunk := name == "leastel"; shrunk != (err == nil) || (!shrunk && !errors.Is(err, ErrGuarantee)) {
			t.Errorf("%s with FScale 0.5, leaderless: err = %v", name, err)
		}
	}
}
