package core

import (
	"cmp"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// runOn is a test helper running one algorithm on one graph with
// small-valued permutation IDs (so even the Theorem 4.1 algorithm, whose
// time is exponential in the smallest ID, terminates promptly); the run
// must pass mustRun.
func runOn(t *testing.T, g *graph.Graph, algo string, seed int64) *sim.Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x51ed))
	return mustRun(t, g, algo, RunOpts{
		Seed:      seed,
		IDs:       sim.PermutationIDs(g.N(), rng),
		MaxRounds: 1 << 17,
	})
}

func TestDFSElectsUniqueLeader(t *testing.T) {
	checkRate(t, "dfs", 4, 1.0, true)
}

func TestDFSMessagesLinearInM(t *testing.T) {
	// Theorem 4.1: O(m) messages; the check holds each run to 16m. The
	// constant covers wake-up (2m), winner traversal (4m), losers (≤4m
	// total geometric) and the done flood (2m).
	rng := rand.New(rand.NewSource(2))
	for _, tt := range []struct{ n, m int }{{20, 40}, {40, 160}, {80, 640}, {120, 2000}} {
		g, err := graph.RandomConnected(tt.n, tt.m, rng)
		if err != nil {
			t.Fatal(err)
		}
		runOn(t, g, "dfs", 11)
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

func TestEstimateElectsUniqueLeader(t *testing.T) {
	checkRate(t, "leastel-estimate", 6, 1.0, true)
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

// TestPaperMapMatchesRegistry: docs/PAPER_MAP.md's Table 1 has one row
// per registered algorithm, and each row's knowledge, coins, success and
// async cells restate its Spec, its paper-result cell starting with
// Spec.Result.
func TestPaperMapMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../../docs/PAPER_MAP.md")
	if err != nil {
		t.Fatal(err)
	}
	success := map[Success]string{Always: "1", WHP: "whp", OneMinusE: "≥ 1−ε", OverE: "≈ 1/e"}
	seen := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		cells := strings.Split(line, " | ")
		if len(cells) != 10 || !strings.HasPrefix(cells[0], "| `") {
			continue
		}
		name := strings.Trim(cells[0], "| `")
		spec, ok := Get(name)
		if !ok || seen[name] {
			t.Errorf("PAPER_MAP row %q: not a registered algorithm, or listed twice", name)
			continue
		}
		seen[name] = true
		var know []string
		for _, k := range []struct {
			needs bool
			label string
		}{{spec.NeedsN, "n"}, {spec.NeedsD, "D"}, {spec.NeedsIDs, "IDs"}} {
			if k.needs {
				know = append(know, k.label)
			}
		}
		coins, async, anyStart := "randomized", "round-driven", "no"
		if spec.Deterministic {
			coins = "deterministic"
		}
		if spec.Bound.MessageDriven {
			async = "message-driven"
		}
		if spec.Bound.AnyStart {
			anyStart = "yes"
		}
		want := []string{cmp.Or(strings.Join(know, ", "), "—"), coins, success[spec.Bound.Success], async, spec.Bound.Winner.String(), anyStart}
		if got := cells[2:8]; !slices.Equal(got, want) {
			t.Errorf("PAPER_MAP row %s: knowledge, coins, success, async, winner, any start = %q, its Spec says %q", name, got, want)
		}
		if !strings.HasPrefix(cells[1], spec.Result+" ") {
			t.Errorf("PAPER_MAP row %s: paper result %q does not start with %q", name, cells[1], spec.Result)
		}
	}
	for _, name := range Names() {
		if !seen[name] {
			t.Errorf("PAPER_MAP has no row for %s", name)
		}
	}
}

func TestLasVegasElectsUniqueLeader(t *testing.T) {
	checkRate(t, "lasvegas", 6, 1.0, true)
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
	checkRate(t, "spanner-le", 6, 1.0, true)
}

func TestClusterElectsUniqueLeader(t *testing.T) {
	checkRate(t, "cluster", 6, 1.0, true)
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
	checkRate(t, "kingdom", 4, 1.0, true)
}

func TestKingdomDElectsUniqueLeader(t *testing.T) {
	checkRate(t, "kingdom-d", 4, 1.0, true)
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
		if r := float64(res.Rounds) / MustGet("kingdom").Bound.Rounds.Of(n, g.M(), n/2); r > 24 {
			t.Errorf("n=%d: rounds=%d = %.2f·D·log n > 24·D·log n (not O(D log n))", n, res.Rounds, r)
		}
	}
}

func TestKingdomMessageShape(t *testing.T) {
	// O(m·log n) messages; the check holds each run to 16·m·log n.
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{32, 64, 128} {
		g, err := graph.RandomConnected(n, 4*n, rng)
		if err != nil {
			t.Fatal(err)
		}
		runOn(t, g, "kingdom", 7)
	}
}

func TestEveryAlgorithmOnEveryGraphSmoke(t *testing.T) {
	// One seed across the full registry and zoo: no crashes, no round
	// caps, every run within its Table 1 row (runOn).
	graphs := testGraphs(t)
	for _, algo := range Names() {
		for _, g := range graphs {
			runOn(t, g, algo, 99)
		}
	}
}
