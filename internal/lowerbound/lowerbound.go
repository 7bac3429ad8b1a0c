// Package lowerbound implements the experiment harnesses behind the
// paper's lower bounds:
//
//   - Theorem 3.1 (Ω(m) messages): dumbbell-graph sweeps measuring the
//     messages/m ratio of every universal election algorithm, plus the
//     Lemma 3.5 bridge-crossing instrument (messages sent before the first
//     bridge crossing).
//   - Theorem 3.13 (Ω(D) time): clique-cycle sweeps measuring rounds/D,
//     and truncated-run success probabilities showing that o(D)-time runs
//     cannot elect reliably.
//   - Corollary 3.12 (Ω(m) broadcast): flooding broadcast on dumbbells.
//   - The §1 trivial algorithm: success probability ≈ 1/e at zero cost.
//
// The theorems are asymptotic and distributional (Yao-minimax over all ID
// and port assignments); the harness samples assignments and reports the
// measured distributions, which is what EXPERIMENTS.md records.
package lowerbound

import (
	"fmt"
	"math/rand"

	"ule/internal/broadcast"
	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
	"ule/internal/stats"
)

// Sweep is one experiment configuration.
type Sweep struct {
	// Algo is a registry name from internal/core.
	Algo string
	// Trials is the number of sampled (ID, port, coin) instantiations.
	Trials int
	// Seed derives all per-trial randomness.
	Seed int64
	// MaxRounds bounds each run (0 = 1<<18).
	MaxRounds int
}

func (s Sweep) maxRounds() int {
	if s.MaxRounds > 0 {
		return s.MaxRounds
	}
	return 1 << 18
}

// MessageRow is one dumbbell measurement.
type MessageRow struct {
	N, M, D      int
	Algo         string
	MsgsPerM     stats.Summary
	BeforeCross  stats.Summary // messages before the first bridge crossing
	CrossRound   stats.Summary // round of the first crossing (0 = never)
	SuccessRate  float64
	MeanMessages float64
}

// MessageLB runs the Theorem 3.1 experiment: algorithm msgs/m on sampled
// dumbbells of per-side size n and edge budget m, every trial on one
// Prepared rebound to its dumbbell.
func MessageLB(n, m int, sw Sweep) (MessageRow, error) {
	rng := rand.New(rand.NewSource(sw.Seed))
	var ratios, before, crossAt, msgs []float64
	successes := 0
	var dval int
	var (
		prep core.Prepared
		res  sim.Result
	)
	for trial := 0; trial < sw.Trials; trial++ {
		db, kappa, err := graph.RandomDumbbell(n, m, rng)
		if err != nil {
			return MessageRow{}, err
		}
		if err := prep.Rebind(db.Graph, sw.Algo); err != nil {
			return MessageRow{}, err
		}
		dval = 2*(n-kappa) + 1
		ids := sim.RandomIDs(db.N(), rng)
		ro := core.RunOpts{Seed: rng.Int63(), IDs: ids, D: dval, MaxRounds: sw.maxRounds(), WatchEdges: db.Bridges[:]}
		if err := prep.RunInto(ro, &res); err != nil {
			return MessageRow{}, fmt.Errorf("dumbbell n=%d m=%d: %w", n, m, err)
		}
		ratios = append(ratios, float64(res.Messages)/float64(db.M()))
		msgs = append(msgs, float64(res.Messages))
		before = append(before, float64(res.MessagesBeforeCrossing))
		crossAt = append(crossAt, float64(res.FirstCrossing))
		if res.UniqueLeader() {
			successes++
		}
	}
	return MessageRow{
		N: n, M: m, D: dval, Algo: sw.Algo,
		MsgsPerM:     stats.Summarize(ratios),
		BeforeCross:  stats.Summarize(before),
		CrossRound:   stats.Summarize(crossAt),
		SuccessRate:  float64(successes) / float64(sw.Trials),
		MeanMessages: stats.Summarize(msgs).Mean,
	}, nil
}

// TimeRow is one clique-cycle measurement.
type TimeRow struct {
	N, D, DPrime int
	Algo         string
	RoundsPerD   stats.Summary
	SuccessRate  float64
}

// TruncatedRow measures election success under a hard round budget.
type TruncatedRow struct {
	N, D        int
	Algo        string
	BudgetFrac  float64 // allowed rounds as a fraction of D
	SuccessRate float64
}

// TimeLB runs the Theorem 3.13 experiment on the Figure 1 clique-cycle
// with target size n and diameter parameter d: rounds/D and success of
// full runs, and for each frac its complement — how often a run capped at
// frac·D rounds (at least 1) has a unique leader at the cap; the paper's
// claim is that o(D) budgets cannot reach large constant success
// probability. Every budget runs on the same sampled instances.
func TimeLB(n, d int, sw Sweep, fracs ...float64) (TimeRow, []TruncatedRow, error) {
	cc, err := graph.NewCliqueCycle(n, d)
	if err != nil {
		return TimeRow{}, nil, err
	}
	diam := cc.DiameterExact()
	budgets := []int{sw.maxRounds()}
	for _, frac := range fracs {
		budgets = append(budgets, max(int(frac*float64(diam)), 1))
	}
	rng := rand.New(rand.NewSource(sw.Seed))
	var ratios []float64
	successes := make([]int, len(budgets))
	var (
		prep core.Prepared
		res  sim.Result
	)
	for trial := 0; trial < sw.Trials; trial++ {
		g := cc.Graph.Clone()
		g.ShufflePorts(rng)
		if err := prep.Rebind(g, sw.Algo); err != nil {
			return TimeRow{}, nil, err
		}
		ro := core.RunOpts{Seed: rng.Int63(), IDs: sim.RandomIDs(g.N(), rng), D: diam}
		for i, budget := range budgets {
			ro.MaxRounds = budget
			if err := prep.RunInto(ro, &res); err != nil {
				return TimeRow{}, nil, err
			}
			if i == 0 {
				ratios = append(ratios, float64(res.LastActive)/float64(diam))
			}
			if res.UniqueLeader() {
				successes[i]++
			}
		}
	}
	rate := func(s int) float64 { return float64(s) / float64(sw.Trials) }
	row := TimeRow{
		N: cc.N(), D: diam, DPrime: cc.DPrime, Algo: sw.Algo,
		RoundsPerD:  stats.Summarize(ratios),
		SuccessRate: rate(successes[0]),
	}
	trunc := make([]TruncatedRow, len(fracs))
	for i, frac := range fracs {
		trunc[i] = TruncatedRow{N: cc.N(), D: diam, Algo: sw.Algo, BudgetFrac: frac, SuccessRate: rate(successes[i+1])}
	}
	return row, trunc, nil
}

// TrivialRow records the §1 zero-message algorithm's measured success.
type TrivialRow struct {
	N           int
	Trials      int
	SuccessRate float64 // should approach 1/e ≈ 0.368
	Messages    int64
}

// TrivialSuccess measures the success probability of the 1/n self-election.
func TrivialSuccess(n, trials int, seed int64) (TrivialRow, error) {
	prep, err := core.Prepare(graph.Ring(n), "trivial")
	if err != nil {
		return TrivialRow{}, err
	}
	successes := 0
	var msgs int64
	var res sim.Result
	for trial := 0; trial < trials; trial++ {
		if err := prep.RunInto(core.RunOpts{Seed: seed + int64(trial)}, &res); err != nil {
			return TrivialRow{}, err
		}
		msgs += res.Messages
		if res.UniqueLeader() {
			successes++
		}
	}
	return TrivialRow{
		N: n, Trials: trials,
		SuccessRate: float64(successes) / float64(trials),
		Messages:    msgs,
	}, nil
}

// BroadcastRow is one Corollary 3.12 measurement.
type BroadcastRow struct {
	N, M        int
	MsgsPerM    stats.Summary
	MajorityOK  float64
	MeanRounds  float64
	BeforeCross stats.Summary
}

// BroadcastLB measures flooding-broadcast messages/m on sampled dumbbells,
// with the source on the left half so the majority condition forces a
// bridge crossing.
func BroadcastLB(n, m int, trials int, seed int64) (BroadcastRow, error) {
	rng := rand.New(rand.NewSource(seed))
	var ratios, before, rounds []float64
	majority := 0
	for trial := 0; trial < trials; trial++ {
		db, _, err := graph.RandomDumbbell(n, m, rng)
		if err != nil {
			return BroadcastRow{}, err
		}
		source := rng.Intn(n) // left half
		res, err := sim.Run(sim.Config{
			Graph:      db.Graph,
			IDs:        sim.RandomIDs(db.N(), rng),
			Seed:       rng.Int63(),
			Wake:       broadcast.Config(db.N(), source),
			WatchEdges: db.Bridges[:],
			MaxRounds:  1 << 18,
		}, broadcast.Flood{Source: source})
		if err != nil {
			return BroadcastRow{}, err
		}
		ratios = append(ratios, float64(res.Messages)/float64(db.M()))
		before = append(before, float64(res.MessagesBeforeCrossing))
		rounds = append(rounds, float64(res.LastActive))
		if broadcast.ReachedMajority(res) {
			majority++
		}
	}
	return BroadcastRow{
		N: 2 * n, M: m,
		MsgsPerM:    stats.Summarize(ratios),
		MajorityOK:  float64(majority) / float64(trials),
		MeanRounds:  stats.Summarize(rounds).Mean,
		BeforeCross: stats.Summarize(before),
	}, nil
}
