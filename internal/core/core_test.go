package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// testGraphs returns the topology zoo used by the cross-algorithm safety
// tests, together with exact diameters.
func testGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(123))
	g1, err := graph.RandomConnected(30, 60, rng)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.RandomConnected(50, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	lolli, err := graph.NewLollipop(24, 80)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := graph.NewCliqueCycle(32, 8)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"single":      graph.Path(1),
		"pair":        graph.Path(2),
		"path":        graph.Path(17),
		"ring":        graph.Ring(20),
		"star":        graph.Star(15),
		"complete":    graph.Complete(12),
		"grid":        graph.Grid(5, 6),
		"hypercube":   graph.Hypercube(4),
		"random":      g1,
		"dense":       g2,
		"lollipop":    lolli.Graph,
		"cliquecycle": cc.Graph,
	}
}

// checkElection runs the algorithm across the zoo and many seeds, asserting
// safety (never more than one leader) and counting successes; it requires
// the success rate to be at least minRate.
func checkElection(t *testing.T, algo string, seeds int, minRate float64) {
	t.Helper()
	graphs := testGraphs(t)
	total, successes := 0, 0
	for name, g := range graphs {
		for seed := int64(0); seed < int64(seeds); seed++ {
			res, err := Run(g, algo, RunOpts{Seed: seed, MaxRounds: 1 << 16})
			if err != nil {
				t.Fatalf("%s on %s seed %d: %v", algo, name, seed, err)
			}
			if res.HitRoundCap {
				t.Fatalf("%s on %s seed %d: hit round cap", algo, name, seed)
			}
			if n := res.LeaderCount(); n > 1 {
				t.Fatalf("%s on %s seed %d: %d leaders (safety violation)", algo, name, seed, n)
			}
			total++
			if res.UniqueLeader() {
				successes++
			}
		}
	}
	rate := float64(successes) / float64(total)
	if rate < minRate {
		t.Errorf("%s success rate %.3f < %.3f (%d/%d)", algo, rate, minRate, successes, total)
	}
}

func TestLeastElElectsUniqueLeader(t *testing.T) {
	// f(n)=n with ID tiebreaks: success probability 1.
	checkElection(t, "leastel", 8, 1.0)
}

func TestLeastElLogLog(t *testing.T) {
	// f(n)=Θ(log n): whp, but small graphs can have zero candidates;
	// accept a small failure rate.
	checkElection(t, "leastel-loglog", 8, 0.9)
}

func TestLeastElConst(t *testing.T) {
	// ε=0.1 ⇒ success ≥ 0.9 on every graph.
	checkElection(t, "leastel-const", 8, 0.9)
}

func TestFloodElectsUniqueLeader(t *testing.T) {
	checkElection(t, "flood", 8, 1.0)
}

func TestTrivialSuccessNearOneOverE(t *testing.T) {
	g := graph.Ring(64)
	successes, trials := 0, 600
	for seed := 0; seed < trials; seed++ {
		res, err := Run(g, "trivial", RunOpts{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != 0 {
			t.Fatal("trivial sent messages")
		}
		if res.Rounds != 1 {
			t.Fatalf("trivial took %d rounds", res.Rounds)
		}
		if res.UniqueLeader() {
			successes++
		}
	}
	rate := float64(successes) / float64(trials)
	// 1/e ≈ 0.368; allow generous Monte-Carlo slack.
	if rate < 0.28 || rate > 0.46 {
		t.Errorf("trivial success rate %.3f, want ≈ 0.368", rate)
	}
}

func TestLeastElTimeIsLinearInD(t *testing.T) {
	// Time must be O(D): on a ring, rounds ≈ 2·D plus small constants.
	for _, n := range []int{16, 32, 64, 128} {
		g := graph.Ring(n)
		d := n / 2
		res, err := Run(g, "leastel", RunOpts{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatalf("n=%d: no unique leader", n)
		}
		if res.Rounds > 4*d+8 {
			t.Errorf("n=%d: rounds=%d exceeds 4D+8=%d", n, res.Rounds, 4*d+8)
		}
	}
}

func TestLeastElMessagesScaleWithMLogN(t *testing.T) {
	// Messages must be O(m·log n) for f=n (each list entry crosses each
	// edge a constant number of times).
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{32, 64, 128} {
		g, err := graph.RandomConnected(n, 4*n, rng)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(g, "leastel", RunOpts{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		// Generous constant: 2 messages (rank+echo) per entry per edge
		// endpoint, expected list length ~ ln n.
		limit := float64(g.M()) * 8 * logf(n)
		if float64(res.Messages) > limit {
			t.Errorf("n=%d: messages=%d > %0.f", n, res.Messages, limit)
		}
	}
}

func logf(n int) float64 {
	l := 1.0
	for v := 2; v < n; v *= 2 {
		l++
	}
	return l
}

func TestLeastElConstUsesFewerMessagesThanAll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g, err := graph.RandomConnected(200, 1200, rng)
	if err != nil {
		t.Fatal(err)
	}
	var msgsAll, msgsConst int64
	for seed := int64(0); seed < 5; seed++ {
		ra, err := Run(g, "leastel", RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rc, err := Run(g, "leastel-const", RunOpts{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		msgsAll += ra.Messages
		msgsConst += rc.Messages
	}
	if msgsConst >= msgsAll {
		t.Errorf("Theorem 4.4.(B) ordering violated: const=%d >= all=%d", msgsConst, msgsAll)
	}
}

func TestAnonymousLeastEl(t *testing.T) {
	// The randomized algorithms work in anonymous networks (§2).
	g := graph.Ring(24)
	for seed := int64(0); seed < 10; seed++ {
		res, err := Run(g, "leastel", RunOpts{Seed: seed, Anonymous: true})
		if err != nil {
			t.Fatal(err)
		}
		if n := res.LeaderCount(); n > 1 {
			t.Fatalf("anonymous leastel elected %d leaders", n)
		}
		if !res.UniqueLeader() {
			t.Errorf("seed %d: anonymous leastel failed (rank collision is ~n^-62)", seed)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 4 {
		t.Fatalf("registry too small: %v", names)
	}
	for _, n := range names {
		s, ok := Get(n)
		if !ok || s.Name != n || s.New == nil {
			t.Errorf("bad spec for %q", n)
		}
		desc, err := Describe(n)
		if err != nil || !strings.Contains(desc, n) {
			t.Errorf("Describe(%q) = %q, %v", n, desc, err)
		}
	}
	if _, ok := Get("no-such-algo"); ok {
		t.Error("unknown name resolved")
	}
	if _, err := Describe("no-such-algo"); err == nil {
		t.Error("Describe accepted unknown name")
	}
}

func TestRunRejectsUnknownAlgorithm(t *testing.T) {
	if _, err := Run(graph.Path(3), "nope", RunOpts{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestRunRejectsAnonymousForIDAlgorithms(t *testing.T) {
	if _, err := Run(graph.Path(3), "flood", RunOpts{Anonymous: true}); err == nil {
		t.Error("flood must require IDs")
	}
}

func TestLeastElCongestCompliant(t *testing.T) {
	// All payloads must fit the CONGEST budget: the engine refuses a
	// larger one at send with ErrBitCap.
	if _, err := Run(graph.Complete(40), "leastel", RunOpts{Seed: 2}); err != nil {
		t.Fatal(err)
	}
}

// TestRankSpaceSaturates pins the §4.2 rank range [1, n⁴] across the int64
// boundary: from n = 55 109 the product wrapped and every rank came from
// {1..4}, leaving Lemma 4.3's list bound to the ID tie-breaks.
func TestRankSpaceSaturates(t *testing.T) {
	for _, tt := range []struct {
		n    int
		want int64
	}{
		{0, 4}, {1, 4}, {2, 16}, {16, 65536},
		{55108, 55108 * 55108 * 55108 * 55108},
		{55109, math.MaxInt64}, {60000, math.MaxInt64}, {65536, math.MaxInt64}, {1 << 20, math.MaxInt64},
	} {
		if got := rankSpace(tt.n); got != tt.want {
			t.Errorf("rankSpace(%d) = %d, want %d", tt.n, got, tt.want)
		}
	}
}

// TestPreparedIDsMatchSim pins the identifier draws a Prepared makes into
// its own buffer to sim's allocating draws, on the election recipe's
// streams — the small-ID permutation and the random assignment — and to
// the cold path's (Config).
func TestPreparedIDsMatchSim(t *testing.T) {
	g := graph.Ring(24)
	prep, err := Prepare(g, "leastel")
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, small := range []bool{false, true} {
			ro := RunOpts{Seed: seed, SmallIDs: small}
			fresh, _, err := Config(g, "leastel", ro)
			if err != nil {
				t.Fatal(err)
			}
			warm, _, err := prep.config(ro)
			if err != nil {
				t.Fatal(err)
			}
			want := sim.RandomIDs(g.N(), rand.New(rand.NewSource(sim.NodeSeed(seed, -1))))
			if small {
				want = sim.PermutationIDs(g.N(), rand.New(rand.NewSource(sim.NodeSeed(seed, -2))))
			}
			if !slices.Equal(warm.IDs, want) || !slices.Equal(fresh.IDs, want) {
				t.Errorf("seed %d, small IDs %v: a Prepared draws %v, Config %v, want %v", seed, small, warm.IDs, fresh.IDs, want)
			}
		}
	}
}

// TestAnonymousTakesNoIDs: an anonymous network has no identifiers, so a
// run that is also given small IDs or an ID list is refused, not run with
// them; and only the algorithms that need IDs refuse a plain anonymous run.
func TestAnonymousTakesNoIDs(t *testing.T) {
	g := graph.Ring(16)
	for _, ro := range []RunOpts{
		{Seed: 3, Anonymous: true, SmallIDs: true},
		{Seed: 3, Anonymous: true, IDs: sim.SequentialIDs(16, 1)},
	} {
		if _, err := Run(g, "leastel", ro); err == nil || !strings.Contains(err.Error(), "anonymous excludes small_ids") {
			t.Errorf("%+v: err = %v, want the anonymous refusal", ro, err)
		}
	}
	res, err := Run(g, "leastel", RunOpts{Seed: 3, Anonymous: true})
	if err != nil || !res.UniqueLeader() {
		t.Fatalf("anonymous leastel: %v", err)
	}
	if _, err := Run(g, "dfs", RunOpts{Seed: 3, Anonymous: true}); err == nil {
		t.Error("anonymous dfs ran")
	}
}
