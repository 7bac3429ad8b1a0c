package core

import (
	"math/rand"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// runOn is a test helper running one algorithm on one graph with
// small-valued permutation IDs (so even the Theorem 4.1 algorithm, whose
// time is exponential in the smallest ID, terminates promptly).
func runOn(t *testing.T, g *graph.Graph, algo string, seed int64) *sim.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x51ed))
	res, err := Run(g, algo, RunOpts{
		Seed:      seed,
		IDs:       sim.PermutationIDs(g.N(), rng),
		MaxRounds: 1 << 17,
	})
	if err != nil {
		t.Fatalf("%s: %v", algo, err)
	}
	return res
}

// checkAll runs an algorithm across the zoo asserting safety and a minimum
// success rate, with permutation IDs.
func checkAll(t *testing.T, algo string, seeds int, minRate float64) {
	t.Helper()
	graphs := testGraphs(t)
	total, succ := 0, 0
	for name, g := range graphs {
		for s := int64(0); s < int64(seeds); s++ {
			res := runOn(t, g, algo, s)
			if res.HitRoundCap {
				t.Fatalf("%s on %s seed %d: hit round cap", algo, name, s)
			}
			if res.LeaderCount() > 1 {
				t.Fatalf("%s on %s seed %d: %d leaders", algo, name, s, res.LeaderCount())
			}
			total++
			if res.UniqueLeader() {
				succ++
			}
		}
	}
	if rate := float64(succ) / float64(total); rate < minRate {
		t.Errorf("%s success rate %.3f < %.3f", algo, rate, minRate)
	}
}

func TestDFSElectsUniqueLeader(t *testing.T) {
	checkAll(t, "dfs", 4, 1.0)
}

func TestDFSMessagesLinearInM(t *testing.T) {
	// Theorem 4.1: O(m) messages. The constant covers wake-up (2m),
	// winner traversal (4m), losers (≤4m total geometric) and the done
	// flood (2m).
	rng := rand.New(rand.NewSource(2))
	for _, tt := range []struct{ n, m int }{{20, 40}, {40, 160}, {80, 640}, {120, 2000}} {
		g, err := graph.RandomConnected(tt.n, tt.m, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runOn(t, g, "dfs", 11)
		if !res.UniqueLeader() {
			t.Fatalf("n=%d: no unique leader", tt.n)
		}
		if res.Messages > int64(16*g.M()) {
			t.Errorf("n=%d m=%d: %d messages > 16m (not O(m))", tt.n, tt.m, res.Messages)
		}
	}
}

func TestDFSTimeGrowsWithMinID(t *testing.T) {
	// The DFS running time is ~2m·2^minID: doubling the smallest ID must
	// roughly double the time.
	g := graph.Ring(16)
	base := int64(-1)
	var prev int
	for _, minID := range []int64{1, 2, 3, 4} {
		ids := sim.SequentialIDs(g.N(), minID)
		res, err := Run(g, "dfs", RunOpts{Seed: 1, IDs: ids, MaxRounds: 1 << 17})
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatalf("minID=%d: no unique leader", minID)
		}
		if base >= 0 && res.Rounds < prev {
			t.Errorf("minID=%d: rounds %d did not grow (prev %d)", minID, res.Rounds, prev)
		}
		base = minID
		prev = res.Rounds
	}
}

func TestDFSAdversarialWakeup(t *testing.T) {
	// Theorem 4.1 explicitly handles non-simultaneous wake-up via the
	// wake flood.
	rng := rand.New(rand.NewSource(3))
	g, err := graph.RandomConnected(24, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 6; seed++ {
		wrng := rand.New(rand.NewSource(seed))
		res, err := Run(g, "dfs", RunOpts{
			Seed:      seed,
			IDs:       sim.PermutationIDs(g.N(), wrng),
			Wake:      adversarialWake(g.N(), 10, wrng),
			MaxRounds: 1 << 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatalf("seed %d: no unique leader under adversarial wakeup", seed)
		}
	}
}

func TestEstimateElectsUniqueLeader(t *testing.T) {
	checkAll(t, "leastel-estimate", 6, 1.0)
}

func TestEstimateNeedsNoKnowledge(t *testing.T) {
	spec := MustGet("leastel-estimate")
	if spec.NeedsN || spec.NeedsD {
		t.Error("Corollary 4.5 must not require knowledge of n or D")
	}
}

// TestKnowledgeIsTheRow: a run grants exactly the knowledge its Table 1
// row assumes — n only where the algorithm needs n, D only where it
// needs D — so no algorithm can read a parameter its row does not give.
func TestKnowledgeIsTheRow(t *testing.T) {
	g := graph.Ring(16)
	for _, algo := range Names() {
		cfg, _, err := Config(g, algo, RunOpts{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var want sim.Knowledge
		spec := MustGet(algo)
		if spec.NeedsN {
			want.N = 16
		}
		if spec.NeedsD {
			want.D = 8
		}
		if cfg.Know != want {
			t.Errorf("%s on ring:16 is granted %+v, its row %+v", algo, cfg.Know, want)
		}
	}
}

func TestLasVegasElectsUniqueLeader(t *testing.T) {
	checkAll(t, "lasvegas", 6, 1.0)
}

func TestLasVegasExpectedTimeLinearInD(t *testing.T) {
	// Expected O(D): across seeds, the mean time on a ring must stay
	// within a constant times D (epochs are 2D+4; a few restarts allowed).
	g := graph.Ring(40)
	d := 20
	var total int
	const seeds = 20
	for s := int64(0); s < seeds; s++ {
		res := runOn(t, g, "lasvegas", s)
		if !res.UniqueLeader() {
			t.Fatalf("seed %d failed", s)
		}
		total += res.Rounds
	}
	if avg := total / seeds; avg > 8*d {
		t.Errorf("mean rounds %d > 8D (expected O(D) with small constant)", avg)
	}
}

func TestSpannerLEElectsUniqueLeader(t *testing.T) {
	checkAll(t, "spanner-le", 6, 1.0)
}

func TestClusterElectsUniqueLeader(t *testing.T) {
	checkAll(t, "cluster", 6, 1.0)
}

func TestClusterMessageShape(t *testing.T) {
	// Theorem 4.7: O(m + n·log n) messages. On dense graphs this beats
	// the f=n least-element algorithm's O(m·log n).
	rng := rand.New(rand.NewSource(17))
	g, err := graph.RandomConnected(150, 3000, rng)
	if err != nil {
		t.Fatal(err)
	}
	var clMsgs, leMsgs int64
	for s := int64(0); s < 5; s++ {
		rng2 := rand.New(rand.NewSource(s ^ 0x51ed))
		ids := sim.PermutationIDs(g.N(), rng2)
		// At n=150 the paper's 8·ln(n) candidate count is ≈ n/4, far from
		// the asymptotic regime; scale it down to Θ(log n) proper so the
		// O(m + n log n) vs O(m log n) separation is visible at this size.
		cl, err := Run(g, "cluster", RunOpts{
			Seed: s, IDs: ids, MaxRounds: 1 << 17,
			Opt: Options{ClusterCandidateFactor: 0.25},
		})
		if err != nil {
			t.Fatal(err)
		}
		le := runOn(t, g, "leastel", s)
		if !cl.UniqueLeader() || !le.UniqueLeader() {
			t.Fatalf("seed %d: failed election", s)
		}
		clMsgs += cl.Messages
		leMsgs += le.Messages
	}
	if clMsgs >= leMsgs {
		t.Errorf("cluster (%d msgs) should beat leastel f=n (%d msgs) on dense graphs", clMsgs, leMsgs)
	}
}

func TestKingdomElectsUniqueLeader(t *testing.T) {
	checkAll(t, "kingdom", 4, 1.0)
}

func TestKingdomDElectsUniqueLeader(t *testing.T) {
	checkAll(t, "kingdom-d", 4, 1.0)
}

func TestKingdomNeedsNoKnowledge(t *testing.T) {
	spec := MustGet("kingdom")
	if spec.NeedsN || spec.NeedsD {
		t.Error("Theorem 4.10 must not require knowledge of n or D")
	}
	if !spec.Deterministic {
		t.Error("Theorem 4.10 is deterministic")
	}
}

func TestKingdomTimeShape(t *testing.T) {
	// O(D·log n) time: on rings, rounds/(D·log n) stays bounded.
	for _, n := range []int{16, 32, 64, 128} {
		g := graph.Ring(n)
		res := runOn(t, g, "kingdom", 5)
		if !res.UniqueLeader() {
			t.Fatalf("n=%d: failed", n)
		}
		d := float64(n / 2)
		limit := 24 * d * logf(n)
		if float64(res.Rounds) > limit {
			t.Errorf("n=%d: rounds=%d > %0.f (not O(D log n))", n, res.Rounds, limit)
		}
	}
}

func TestKingdomMessageShape(t *testing.T) {
	// O(m·log n) messages.
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{32, 64, 128} {
		g, err := graph.RandomConnected(n, 4*n, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := runOn(t, g, "kingdom", 7)
		if !res.UniqueLeader() {
			t.Fatalf("n=%d: failed", n)
		}
		limit := 24 * float64(g.M()) * logf(n)
		if float64(res.Messages) > limit {
			t.Errorf("n=%d: messages=%d > %0.f (not O(m log n))", n, res.Messages, limit)
		}
	}
}

func TestEveryAlgorithmOnEveryGraphSmoke(t *testing.T) {
	// One seed across the full registry and zoo: no crashes, no round
	// caps, never two leaders.
	graphs := testGraphs(t)
	for _, algo := range Names() {
		for name, g := range graphs {
			res := runOn(t, g, algo, 99)
			if res.HitRoundCap {
				t.Errorf("%s on %s: round cap", algo, name)
			}
			// The trivial algorithm's legal failure mode is multiple
			// leaders; every real election must never elect two.
			if algo != "trivial" && res.LeaderCount() > 1 {
				t.Errorf("%s on %s: %d leaders", algo, name, res.LeaderCount())
			}
		}
	}
}

// adversarialWake returns a schedule where a random subset of nodes wakes
// spontaneously at random rounds in [1, spread] and everyone else wakes
// only on message arrival. At least one node wakes in round 1 (the model
// guarantee).
func adversarialWake(n, spread int, rng *rand.Rand) []int {
	w := make([]int, n)
	for i := range w {
		if rng.Intn(2) == 0 {
			w[i] = 1 + rng.Intn(spread)
		} else {
			w[i] = sim.WakeOnMessage
		}
	}
	w[rng.Intn(n)] = 1
	return w
}
