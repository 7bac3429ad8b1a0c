package sim

import (
	"errors"
	"fmt"
	"testing"

	"ule/internal/graph"
)

// resultKey reduces a Result to everything observable, for engine
// equivalence checks.
func resultKey(r *Result) string {
	return fmt.Sprintf("rounds=%d last=%d msgs=%d bits=%d leaders=%v halted=%v cap=%v statuses=%v",
		r.Rounds, r.LastActive, r.Messages, r.Bits, r.Leaders, r.Halted, r.HitRoundCap, r.Statuses)
}

// TestEventEngineMatchesDense is the differential test behind the engine:
// on the synchronous modes, the event-driven scheduler must be observably
// identical to the dense round-by-round reference interpreter for every
// combination of protocol, wake schedule and instrumentation.
func TestEventEngineMatchesDense(t *testing.T) {
	g := graph.Torus(4, 4)
	n := g.N()
	wakes := map[string][]int{
		"sync": nil,
		"adversarial": func() []int {
			w := make([]int, n)
			for i := range w {
				w[i] = WakeOnMessage
			}
			w[3] = 1
			return w
		}(),
		"staggered": func() []int {
			w := make([]int, n)
			for i := range w {
				w[i] = 1 + i%5
			}
			return w
		}(),
	}
	protos := map[string]Protocol{
		"floodOnce": floodOnceProto{},
		"coin":      coinProto{},
		"babbler":   babblerProto{},
	}
	for wname, wake := range wakes {
		for pname, proto := range protos {
			t.Run(wname+"/"+pname, func(t *testing.T) {
				cfg := Config{
					Graph: g, IDs: SequentialIDs(n, 1), Seed: 9, Wake: wake,
					MaxRounds: 60, WatchEdges: [][2]int{{0, 1}},
				}
				mustMatchReference(t, cfg, proto)
			})
		}
	}
}

// TestAsyncDeterministic: same seed ⇒ same transcript under every delay
// schedule, on one shard and on four, across fresh and reused Runners.
func TestAsyncDeterministic(t *testing.T) {
	g := graph.Torus(4, 4)
	for _, delay := range []string{"unit", "random:6", "fifo:6"} {
		t.Run(delay, func(t *testing.T) {
			ds, err := ParseDelay(delay)
			if err != nil {
				t.Fatal(err)
			}
			run := func(shards int) *Result {
				res, err := Run(Config{
					Graph: g, Seed: 42, Model: ModelSpec{Mode: ASYNC, Delay: ds},
					MaxRounds: 500, Shards: shards,
				}, coinProto{})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b, c := run(1), run(1), run(4)
			if resultKey(a) != resultKey(b) {
				t.Errorf("single-shard async runs diverge:\n%s\n%s", resultKey(a), resultKey(b))
			}
			if resultKey(a) != resultKey(c) {
				t.Errorf("4-shard async run diverges:\n%s\n%s", resultKey(a), resultKey(c))
			}
		})
	}
}

// TestAsyncUnitMatchesSync: for an oblivious (message-driven) protocol,
// the asynchronous execution under unit delays collapses to the
// synchronous one — same messages, same statuses, same rounds.
func TestAsyncUnitMatchesSync(t *testing.T) {
	g := graph.Ring(12)
	wake := make([]int, 12)
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[0] = 1
	sync, err := Run(Config{Graph: g, IDs: SequentialIDs(12, 1), Wake: wake, Seed: 3}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	async, err := Run(Config{Graph: g, IDs: SequentialIDs(12, 1), Wake: wake, Seed: 3, Model: ModelSpec{Mode: ASYNC}}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if resultKey(sync) != resultKey(async) {
		t.Errorf("async/unit diverges from sync for an oblivious protocol:\nsync:  %s\nasync: %s",
			resultKey(sync), resultKey(async))
	}
}

// sleeperProto parks each node for delta rounds after its first step,
// with an IdleUntil promise it keeps, and has it decide and halt when the
// promise ends: in the synchronous modes the explicit timer at the end of
// the promise is the only event after the first round. ASYNC has no
// timers, so there the nodes step once and stay undecided.
type sleeperProto struct{ delta int }

func (p sleeperProto) New(NodeInfo) Process { return &sleeperProc{delta: p.delta} }

type sleeperProc struct{ delta, until int }

func (p *sleeperProc) Start(c *Context) {}
func (p *sleeperProc) Round(c *Context, inbox []Message) {
	if p.until == 0 {
		p.until = c.Round() + p.delta
	}
	if c.Round() < p.until && len(inbox) == 0 {
		c.IdleUntil(p.until)
		return
	}
	c.Decide(NonLeader)
	c.Halt()
}

// TestScheduledWakeRevivesQuietNetwork: a node whose wake round is far in
// the future must still fire even when nothing else is running — timer
// wake-ups are first-class events (the dense loop's deadlock detector
// stopped such runs prematurely).
func TestScheduledWakeRevivesQuietNetwork(t *testing.T) {
	g := graph.Path(3)
	res, err := Run(Config{Graph: g, Wake: []int{40, WakeOnMessage, WakeOnMessage}, Seed: 1, MaxRounds: 1000}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Error("wave never ran")
	}
	if res.Rounds < 40 {
		t.Errorf("rounds = %d, want the engine to jump to the round-40 wake-up", res.Rounds)
	}
	if res.HitRoundCap {
		t.Error("hit the round cap instead of quiescing")
	}
}

func TestAsyncConfigValidation(t *testing.T) {
	g := graph.Path(2)
	if _, err := Run(Config{Graph: g, Model: ModelSpec{Delay: RandomDelay(4)}}, floodOnceProto{}); !errors.Is(err, ErrConfig) {
		t.Errorf("delay schedule accepted outside ASYNC mode: %v", err)
	}
	for _, mode := range []Mode{-1, ASYNC + 1, 7} {
		if _, err := Run(Config{Graph: g, Model: ModelSpec{Mode: mode}}, floodOnceProto{}); !errors.Is(err, ErrConfig) {
			t.Errorf("mode %d ran (as CONGEST) instead of being rejected: %v", int(mode), err)
		}
	}
}

func TestDelaySchedules(t *testing.T) {
	for _, spec := range []string{"unit", "random:5", "fifo:5"} {
		ds, err := ParseDelay(spec)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Name() != spec {
			t.Errorf("Name() = %q, want %q", ds.Name(), spec)
		}
		for u := 0; u < 4; u++ {
			for p := 0; p < 3; p++ {
				for seq := 0; seq < 8; seq++ {
					d := ds.Delay(7, u, p, seq)
					if d < 1 || d > 5 {
						t.Fatalf("%s: delay %d out of [1,5]", spec, d)
					}
					if d != ds.Delay(7, u, p, seq) {
						t.Fatalf("%s: non-deterministic delay", spec)
					}
				}
			}
		}
	}
	// FIFO: constant per directed link, independent of the sequence number.
	fifo, _ := ParseDelay("fifo:9")
	if fifo.Delay(1, 2, 0, 0) != fifo.Delay(1, 2, 0, 99) {
		t.Error("fifo delay varies with sequence number")
	}
	// "" is unit; junk is rejected.
	if ds, err := ParseDelay(""); err != nil || ds.Delay(1, 0, 0, 0) != 1 {
		t.Errorf("empty spec: %v", err)
	}
	for _, bad := range []string{"random", "random:0", "fifo:-1", "unit:3", "gauss:2"} {
		if _, err := ParseDelay(bad); err == nil {
			t.Errorf("ParseDelay(%q) accepted", bad)
		}
	}
}

func TestParseMode(t *testing.T) {
	for spec, want := range map[string]Mode{"": CONGEST, "congest": CONGEST, "LOCAL": LOCAL, "async": ASYNC} {
		got, err := ParseMode(spec)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", spec, got, err)
		}
	}
	if _, err := ParseMode("quantum"); err == nil {
		t.Error("ParseMode accepted junk")
	}
	if ASYNC.String() != "async" || CONGEST.String() != "congest" || LOCAL.String() != "local" {
		t.Error("bad Mode strings")
	}
}

// TestAsyncRunnerReuse: repeated async runs through one Runner match a
// fresh Runner per run (the event-queue scratch resets completely).
func TestAsyncRunnerReuse(t *testing.T) {
	g := graph.Torus(3, 3)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	ds := RandomDelay(5)
	for i := 0; i < 5; i++ {
		seed := int64(20 + i)
		reused, err := r.Run(Config{Graph: g, Seed: seed, Model: ModelSpec{Mode: ASYNC, Delay: ds}, MaxRounds: 400}, coinProto{})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(Config{Graph: g, Seed: seed, Model: ModelSpec{Mode: ASYNC, Delay: ds}, MaxRounds: 400}, coinProto{})
		if err != nil {
			t.Fatal(err)
		}
		if resultKey(reused) != resultKey(fresh) {
			t.Fatalf("seed %d: reused Runner diverges:\n%s\n%s", seed, resultKey(reused), resultKey(fresh))
		}
	}
}

// haltInStart decides and halts immediately on wake-up without sending —
// the sparsest possible protocol, used to probe termination corners.
type haltInStartProto struct{}

func (haltInStartProto) New(NodeInfo) Process { return haltInStart{} }

type haltInStart struct{}

func (haltInStart) Start(c *Context) {
	c.Decide(NonLeader)
	c.Halt()
}
func (haltInStart) Round(*Context, []Message) {}

// TestFutureWakeAgreesAcrossEngines: when every awake node halts before a
// sleeper's scheduled wake round, the engine and the reference must both
// wait for that wake to fire (a dense loop once mistook such sleepers for
// dead ones).
func TestFutureWakeAgreesAcrossEngines(t *testing.T) {
	g := graph.Path(2)
	res := mustMatchReference(t, Config{Graph: g, Wake: []int{1, 5}, Seed: 1, MaxRounds: 100}, haltInStartProto{})
	if !res.Halted || res.Rounds != 5 {
		t.Errorf("halted=%v rounds=%d, want both nodes run and rounds=5", res.Halted, res.Rounds)
	}
	// A wake scheduled past the round cap can never fire: dead network.
	res = mustMatchReference(t, Config{Graph: g, Wake: []int{1, 500}, Seed: 1, MaxRounds: 100}, haltInStartProto{})
	if res.HitRoundCap || res.Rounds != 1 {
		t.Errorf("cap=%v rounds=%d, want early stop at round 1", res.HitRoundCap, res.Rounds)
	}
}

// TestStaleWakeDoesNotInflateRounds: a node woken by a message before its
// scheduled wake round leaves a dead queue entry behind; the entry must
// not keep the run alive or stretch Rounds (and the engine must agree with
// the reference).
func TestStaleWakeDoesNotInflateRounds(t *testing.T) {
	g := graph.Path(3)
	wake := []int{1, 50, WakeOnMessage}
	res := mustMatchReference(t, Config{Graph: g, Wake: wake, Seed: 1, MaxRounds: 1000}, floodOnceProto{})
	if res.Rounds >= 50 {
		t.Errorf("rounds = %d: the stale round-50 wake entry stretched the run", res.Rounds)
	}
}

// parkThenHaltProto runs on graph.Path(3) with node 2 asleep until a
// message: node 0 sends to node 1 and halts in round 1, node 1 parks until
// round 40 and halts when the message arrives in round 2. Its timer at 40
// is then dead, and node 2 never wakes.
type parkThenHaltProto struct{}

func (parkThenHaltProto) New(info NodeInfo) Process { return parkThenHalt{id: info.ID} }

type parkThenHalt struct{ id int64 }

func (parkThenHalt) Start(*Context) {}
func (p parkThenHalt) Round(c *Context, inbox []Message) {
	if p.id == 2 && len(inbox) == 0 {
		c.IdleUntil(40)
		return
	}
	if p.id == 1 {
		c.Send(0, tokenMsg{1})
	}
	c.Decide(NonLeader)
	c.Halt()
}

// TestDeadTimerDoesNotStretchRun: the timer of a parked node that a
// message roused and that then halted must not keep the engine ticking
// once nothing else is running (ASYNC ignores the promise and queues no
// timer at all).
func TestDeadTimerDoesNotStretchRun(t *testing.T) {
	g := graph.Path(3)
	wake := []int{1, 1, WakeOnMessage}
	for _, mode := range []Mode{CONGEST, ASYNC} {
		res, err := Run(Config{Graph: g, IDs: SequentialIDs(3, 1), Wake: wake, Seed: 1, Model: ModelSpec{Mode: mode}, MaxRounds: 1000}, parkThenHaltProto{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rounds != 2 || res.HitRoundCap {
			t.Errorf("mode %v: rounds = %d, want 2 (dead timer processed)", mode, res.Rounds)
		}
	}
}

func TestDelayConstructorClamp(t *testing.T) {
	for _, ds := range []DelaySchedule{RandomDelay(0), RandomDelay(-3), FIFODelay(0)} {
		if d := ds.Delay(1, 0, 0, 0); d != 1 {
			t.Errorf("%s: Delay = %d, want clamped unit delay", ds.Name(), d)
		}
	}
}
