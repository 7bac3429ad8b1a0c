package core

import (
	"math/rand"
	"testing"

	"ule/internal/sim"
)

// TestAsyncAllAlgorithmsDeterministic: in ASYNC mode every registered
// algorithm must produce the same transcript for the same seed under each
// delay schedule. Success is not required — round-counting protocols
// legitimately stall against the asynchronous adversary — but the outcome,
// whatever it is, must be reproducible.
func TestAsyncAllAlgorithmsDeterministic(t *testing.T) {
	g := fixedGraphs(t)["random:24:72"]
	for _, algo := range Names() {
		for _, delay := range []string{"unit", "random:5", "fifo:5"} {
			t.Run(algo+"/"+delay, func(t *testing.T) {
				m, err := sim.ParseModel("async+" + delay)
				if err != nil {
					t.Fatal(err)
				}
				run := func() []byte {
					res, err := Run(g, algo, RunOpts{
						Seed:  8,
						IDs:   sim.PermutationIDs(g.N(), rand.New(rand.NewSource(8))),
						Model: m, MaxRounds: 1 << 12,
					})
					if err != nil {
						t.Fatal(err)
					}
					return resultBytes(t, res)
				}
				a, b := run(), run()
				if string(a) != string(b) {
					t.Errorf("async run not reproducible:\n%s\n%s", a, b)
				}
			})
		}
	}
}

// TestAsyncRoundCountersStillStall pins what E16 and docs/PAPER_MAP.md
// say of the algorithms that count rounds while silent: against the
// asynchronous adversary nothing steps a node but a message, so they stall
// and quiesce undecided. Their sim.Context.IdleUntil hints must stay
// hints there — one that turned into a timer event would let them finish
// — so the transcript lengths are the ones from before the hints existed,
// re-taken when Context.Round became the node's own step count in ASYNC.
func TestAsyncRoundCountersStillStall(t *testing.T) {
	g := fixedGraphs(t)["ring:16"]
	m, err := sim.ParseModel("async+random:4")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		algo     string
		rounds   int
		messages int64
	}{
		{"dfs", 6, 34},
		{"flood", 29, 104},
		{"lasvegas", 44, 68},
	} {
		res, err := Run(g, c.algo, RunOpts{
			Seed: 8, IDs: sim.PermutationIDs(g.N(), rand.New(rand.NewSource(8))),
			Model: m, MaxRounds: 1 << 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Leaders) != 0 || res.Halted || res.HitRoundCap {
			t.Errorf("%s: leaders=%v halted=%v cap=%v, want a quiescent undecided stall", c.algo, res.Leaders, res.Halted, res.HitRoundCap)
		}
		if res.Rounds != c.rounds || res.Messages != c.messages {
			t.Errorf("%s: rounds=%d messages=%d, want %d and %d", c.algo, res.Rounds, res.Messages, c.rounds, c.messages)
		}
	}
}
