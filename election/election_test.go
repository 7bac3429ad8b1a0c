package election_test

import (
	"strings"
	"testing"

	"ule/election"
)

func TestElectQuickstart(t *testing.T) {
	g := election.Ring(32)
	res, err := election.Elect(g, "leastel", election.Params{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UniqueLeader() {
		t.Fatal("no unique leader")
	}
	if res.Leaders[0] < 0 || res.Leaders[0] >= g.N() {
		t.Fatal("leader index out of range")
	}
}

func TestAlgorithmsRegistryExposed(t *testing.T) {
	names := election.Algorithms()
	want := []string{"leastel", "dfs", "kingdom", "cluster", "spanner-le",
		"lasvegas", "leastel-estimate", "flood", "trivial"}
	have := strings.Join(names, " ")
	for _, w := range want {
		if !strings.Contains(have, w) {
			t.Errorf("registry missing %q (have %v)", w, names)
		}
	}
	for _, n := range names {
		if _, err := election.Describe(n); err != nil {
			t.Errorf("Describe(%q): %v", n, err)
		}
	}
}

func TestElectEveryRegisteredAlgorithm(t *testing.T) {
	g := election.Hypercube(4)
	for _, algo := range election.Algorithms() {
		ids := election.PermutationIDs(g.N(), election.NewRand(3))
		// Elect holds the run to its Table 1 row: two leaders from any
		// row but trivial's is an error.
		if _, err := election.Elect(g, algo, election.Params{Seed: 3, IDs: ids, MaxRounds: 1 << 16}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}

func TestLocalModeAndParallel(t *testing.T) {
	g := election.Torus(5, 5)
	a, err := election.Elect(g, "leastel", election.Params{Seed: 2, Model: "local"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := election.Elect(g, "leastel", election.Params{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Messages != b.Messages || !a.UniqueLeader() || !b.UniqueLeader() {
		t.Errorf("LOCAL/CONGEST runs diverge: %d vs %d msgs", a.Messages, b.Messages)
	}
}

// TestCustomProtocol verifies the simulator extension point: a user-defined
// protocol written purely against the public facade.
type pingPayload struct{}

func (pingPayload) Bits() int { return 1 }

type pingProto struct{}

func (pingProto) New(info election.NodeInfo) election.Process {
	return &pingProc{}
}

type pingProc struct{ done bool }

func (p *pingProc) Start(c *election.Context) {}
func (p *pingProc) Round(c *election.Context, inbox []election.Message) {
	if !p.done {
		c.Broadcast(pingPayload{})
		c.Decide(election.NonLeader)
		p.done = true
		return
	}
	c.Halt()
}

func TestCustomProtocol(t *testing.T) {
	g := election.Ring(8)
	res, err := election.Run(election.Config{Graph: g, Seed: 1, MaxRounds: 10}, pingProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 16 {
		t.Errorf("messages = %d, want 16", res.Messages)
	}
}

// TestElectWithFaults drives the fault adversary through the public API.
func TestElectWithFaults(t *testing.T) {
	g := election.Ring(32)
	res, err := election.Elect(g, "leastel", election.Params{
		Seed: 1, Model: "crash:0.2", MaxRounds: 1 << 14,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Crashed) != g.N() {
		t.Fatalf("Crashed has %d entries, want %d", len(res.Crashed), g.N())
	}
	if res.Crashes == 0 {
		t.Skip("seed produced no crashes at p=0.2; statistical, not an API failure")
	}
	if !res.UniqueLiveLeader() && res.UniqueLeader() {
		t.Error("UniqueLeader true but UniqueLiveLeader false: predicate inconsistency")
	}
	bad, err := election.Elect(g, "leastel", election.Params{Seed: 1, Model: "crash:7"})
	if err == nil {
		t.Errorf("invalid fault spec accepted, got %v", bad)
	}
}

// TestAnonymousRefusesIDs: an anonymous network has no identifiers, so
// Params with both Anonymous and an ID list is an error, not a run with
// the IDs.
func TestAnonymousRefusesIDs(t *testing.T) {
	g := election.Ring(16)
	_, err := election.Elect(g, "leastel", election.Params{Seed: 3, Anonymous: true, IDs: election.SequentialIDs(16, 1)})
	if err == nil || !strings.Contains(err.Error(), "anonymous") {
		t.Fatalf("anonymous run with IDs: err = %v, want a refusal", err)
	}
	if _, err := election.Elect(g, "leastel", election.Params{Seed: 3, Anonymous: true}); err != nil {
		t.Fatalf("anonymous run: %v", err)
	}
}
