package serve

import (
	"context"
	"testing"

	"ule/election"
	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/harness"
	"ule/internal/sim"
)

// scalars is what every front end must agree on for one election.
type scalars struct {
	rounds, lastActive, leaders int
	messages, bits              int64
	unique, liveUnique          bool // liveUnique is reported under faults only
}

func scalarsOf(m sim.ModelSpec, res *sim.Result) scalars {
	return scalars{
		rounds: res.Rounds, lastActive: res.LastActive, leaders: res.LeaderCount(),
		messages: res.Messages, bits: res.Bits,
		unique: res.UniqueLeader(), liveUnique: m.Faults != nil && res.UniqueLiveLeader(),
	}
}

// TestFrontEndsAgree runs one (graph, algo, seed) under every model × wake
// cell through the four ways in — election.Elect, core.Run, a one-cell
// harness sweep and Manager.RunElection — and requires the same election
// from each: one ModelSpec handed down unchanged, one recipe above it.
func TestFrontEndsAgree(t *testing.T) {
	const (
		graphSpec = "ring:24"
		algo      = "leastel"
		base      = 5
	)
	seed := harness.TrialSeed(base, 0)
	g, err := graph.FromSpec(graphSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{Slots: 1})
	defer mgr.Shutdown(context.Background())

	for _, model := range []string{"", "local", "async+random:4", "crash:0.2", "async+fifo:3+crashrec:0.1:32"} {
		for _, wake := range []string{"sync", "adversarial"} {
			t.Run(model+"/"+wake, func(t *testing.T) {
				m, err := sim.ParseModel(model)
				if err != nil {
					t.Fatal(err)
				}
				sched, err := harness.WakeSchedule(wake, g.N(), seed)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]scalars{}

				res, err := election.Elect(g, algo, election.Params{Seed: seed, Model: model, Wake: sched})
				if err != nil {
					t.Fatalf("election.Elect: %v", err)
				}
				got["election.Elect"] = scalarsOf(m, res)

				res, err = core.Run(g, algo, core.RunOpts{Seed: seed, Model: m, Wake: sched})
				if err != nil {
					t.Fatalf("core.Run: %v", err)
				}
				got["core.Run"] = scalarsOf(m, res)

				spec := harness.Spec{
					Algos: []string{algo}, Graphs: []string{graphSpec}, Seed: base,
					Modes: []string{m.Mode.String()}, Wakes: []string{wake},
				}
				if m.Delay != nil {
					spec.Delays = []string{m.Delay.Name()}
				}
				if m.Faults != nil {
					spec.Faults = []string{m.Faults.Name()}
				}
				cap := &captureEmitter{}
				if _, err := harness.Run(spec, harness.RunConfig{Workers: 1, Emitters: []harness.Emitter{cap}}); err != nil {
					t.Fatalf("harness.Run: %v", err)
				}
				if len(cap.trials) != 1 || cap.trials[0].Err != "" {
					t.Fatalf("harness.Run: want one clean trial, got %+v", cap.trials)
				}
				tr := cap.trials[0]
				got["harness.Run"] = scalars{
					rounds: tr.Rounds, lastActive: tr.LastActive, leaders: tr.Leaders,
					messages: tr.Messages, bits: tr.Bits,
					unique: tr.Unique, liveUnique: tr.LiveUnique,
				}

				er, err := mgr.RunElection(context.Background(), ElectionRequest{
					Graph: graphSpec, Algo: algo, Seed: seed, Model: model, Wake: wake,
				})
				if err != nil {
					t.Fatalf("Manager.RunElection: %v", err)
				}
				got["Manager.RunElection"] = scalars{
					rounds: er.Rounds, lastActive: er.LastActive, leaders: er.Leaders,
					messages: er.Messages, bits: er.Bits,
					unique: er.Unique, liveUnique: er.LiveUnique,
				}

				want := got["core.Run"]
				if want.messages == 0 {
					t.Fatal("core.Run moved no message; the cell compares nothing")
				}
				for name, s := range got {
					if s != want {
						t.Errorf("%s = %+v, core.Run = %+v", name, s, want)
					}
				}
			})
		}
	}
}
