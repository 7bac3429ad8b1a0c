package core

import (
	"fmt"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// TestReelectionAfterWinnerCrash pins the fault semantics end to end:
// flood elects the maximum identifier, so crashing its owner before it
// ever speaks must hand the election to the second-highest ID — and the
// fault-tolerant predicate must accept exactly that outcome. (A faulty run
// is outside the Table 1 check: its rows assume a fault-free network.)
func TestReelectionAfterWinnerCrash(t *testing.T) {
	const n = 16
	g := graph.Ring(n)
	ids := sim.SequentialIDs(n, 1) // node u has ID u+1; node n-1 is the winner
	m, err := sim.ParseModel(fmt.Sprintf("crash@1:%d", n-1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, "flood", RunOpts{Seed: 5, IDs: ids, Model: m, MaxRounds: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || !res.Crashed[n-1] {
		t.Fatalf("crash@1:%d did not take down the winner: %+v", n-1, res.Crashed)
	}
	if res.Statuses[n-1] != sim.Undecided {
		t.Errorf("crashed winner decided anyway: %v", res.Statuses[n-1])
	}
	// The runner-up (node n-2, ID n-1) must now win among the live nodes.
	if res.Statuses[n-2] != sim.Leader {
		t.Errorf("runner-up status = %v, want Leader", res.Statuses[n-2])
	}
	if res.UniqueLeader() {
		t.Error("UniqueLeader must fail: the crashed node is undecided")
	}
	if !res.UniqueLiveLeader() {
		t.Error("UniqueLiveLeader must accept the re-election among live nodes")
	}
	// And the same run fault-free elects the original winner, confirming
	// the crash actually changed the outcome.
	clean, err := Run(g, "flood", RunOpts{Seed: 5, IDs: ids, MaxRounds: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Statuses[n-1] != sim.Leader {
		t.Fatalf("fault-free winner should be node %d", n-1)
	}
}
