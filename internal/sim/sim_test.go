package sim

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ule/internal/graph"
)

// pingProto: node with smallest port count... simple test protocol that
// floods a token once and decides. Used to exercise engine mechanics.
type tokenMsg struct{ v int64 }

func (m tokenMsg) Bits() int { return BitsFor(m.v) }

type floodOnce struct{ seen bool }

type floodOnceProto struct{}

func (floodOnceProto) New(info NodeInfo) Process { return &floodOnce{} }

func (p *floodOnce) Start(c *Context) {
	if c.SpontaneousWake() {
		p.seen = true
		c.Broadcast(tokenMsg{c.ID()})
		c.Decide(NonLeader)
	}
}

func (p *floodOnce) Round(c *Context, inbox []Message) {
	if !p.seen && len(inbox) > 0 {
		p.seen = true
		c.Broadcast(tokenMsg{1})
		c.Decide(NonLeader)
	}
	if p.seen {
		c.Halt()
	}
}

func TestFloodOnceTerminatesAndCounts(t *testing.T) {
	g := graph.Ring(10)
	wake := make([]int, 10)
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[0] = 1
	res, err := Run(Config{Graph: g, IDs: SequentialIDs(10, 1), Wake: wake, Seed: 1}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Error("not all nodes halted")
	}
	// Node 0 broadcasts 2, each of the other 9 broadcasts 2 once woken.
	if res.Messages != 20 {
		t.Errorf("messages = %d, want 20", res.Messages)
	}
	// Wake wave travels half the ring: ~n/2+1 rounds.
	if res.Rounds < 5 || res.Rounds > 8 {
		t.Errorf("rounds = %d, want ≈6", res.Rounds)
	}
}

func TestWatchedEdgeFirstCrossing(t *testing.T) {
	g := graph.Path(6)
	wake := []int{1, WakeOnMessage, WakeOnMessage, WakeOnMessage, WakeOnMessage, WakeOnMessage}
	res, err := Run(Config{
		Graph: g, IDs: SequentialIDs(6, 1), Wake: wake, Seed: 1,
		WatchEdges: [][2]int{{4, 5}},
	}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	// The wave leaves node 0 in round 1 and is re-sent by nodes 1..4 in
	// rounds 2..5; the crossing is recorded at its delivery round, 6.
	if res.FirstCrossing != 6 {
		t.Errorf("first crossing at round %d, want 6", res.FirstCrossing)
	}
	// 4 messages strictly precede the crossing (0→1,1→2,2→3,3→4 wave,
	// minus the backward echoes that happen in the same rounds).
	if res.MessagesBeforeCrossing <= 0 || res.MessagesBeforeCrossing >= res.Messages {
		t.Errorf("messages before crossing = %d of %d", res.MessagesBeforeCrossing, res.Messages)
	}
}

// portSenderProto has every node send k messages through port 0 in every
// round it is stepped.
type portSenderProto struct{ k int }

func (p portSenderProto) New(info NodeInfo) Process { return portSender(p) }

type portSender struct{ k int }

func (portSender) Start(c *Context) {}
func (p portSender) Round(c *Context, inbox []Message) {
	for i := 0; i < p.k; i++ {
		c.Send(0, tokenMsg{int64(i)})
	}
}

// turncoat is elected on its start and non-elected when Round reads 2:
// a round later in CONGEST, when its neighbor's message arrives, and in
// ASYNC, where Round counts the node's own steps, in the Round call of
// its Start tick.
type turncoat struct{}

func (turncoat) New(info NodeInfo) Process { return turncoat{} }
func (turncoat) Start(c *Context) {
	c.Decide(Leader)
	c.Broadcast(tokenMsg{1})
}
func (turncoat) Round(c *Context, inbox []Message) {
	c.Decide(Leader) // the same status again is no change
	if c.Round() == 2 {
		c.Decide(NonLeader)
	}
}

// TestDecisionIsFinal: changing a decided status is a model violation,
// ErrRevoked, synchronous and asynchronous alike. The error names the
// engine's tick.
func TestDecisionIsFinal(t *testing.T) {
	for model, tick := range map[string]int{"congest": 2, "async": 1} {
		m, err := ParseModel(model)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Run(Config{Graph: graph.Path(2), Seed: 1, Model: m}, turncoat{})
		want := fmt.Sprintf("elected → non-elected in round %d", tick)
		if !errors.Is(err, ErrRevoked) || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want ErrRevoked in round %d", model, err, tick)
		}
	}
}

// roundRead is one Context.Round reading of a node: in its Start or in a
// Round call.
type roundRead struct {
	start bool
	round int
}

// roundProbe logs every Round reading of every node (IDs are node
// indices) and keeps traffic going: each node broadcasts in its Start and
// each of its Round calls until it has stepped steps times, then halts.
type roundProbe struct {
	log   [][]roundRead
	steps int
}

func (p *roundProbe) New(info NodeInfo) Process { return &roundProbeProc{p: p, u: int(info.ID)} }

type roundProbeProc struct {
	p     *roundProbe
	u, no int
}

func (q *roundProbeProc) Start(c *Context)                  { q.step(c, true) }
func (q *roundProbeProc) Round(c *Context, inbox []Message) { q.step(c, false) }

func (q *roundProbeProc) step(c *Context, start bool) {
	q.p.log[q.u] = append(q.p.log[q.u], roundRead{start, c.Round()})
	if q.no++; q.no < q.p.steps {
		c.Broadcast(tokenMsg{int64(q.no)})
	} else {
		c.Halt()
	}
}

// TestAsyncRoundIsLocal: in ASYNC a node has no clock, so Context.Round is
// its own step count — 1 in its Start, one more in each Start and Round
// call since — whatever the delays and the shard count; a reset-state
// rejoin (a fresh process) counts from 1 again, a keep-state one goes on.
// CONGEST still reads the engine's round, which the Start and the Round
// call of a node's wake-up tick share.
func TestAsyncRoundIsLocal(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(Context{}) != 80 {
		t.Errorf("Context is %d B, want 80: the step count must fit its padding", unsafe.Sizeof(Context{}))
	}
	const n, steps = 64, 24
	for _, model := range []string{
		"async+random:8", "async+fifo:4", "async+random:8+crashrec:0.3:6", "async+fifo:4+crashrec:0.3:6:keep", "congest",
	} {
		m, err := ParseModel(model)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 4} {
			probe := &roundProbe{log: make([][]roundRead, n), steps: steps}
			res, err := Run(Config{
				Graph: graph.Ring(n), IDs: SequentialIDs(n, 0), Seed: 5, Model: m, MaxRounds: 1 << 12, Shards: shards,
			}, probe)
			if err != nil {
				t.Fatal(err)
			}
			if m.Faults != nil && res.Recoveries == 0 {
				t.Fatalf("%s shards %d: nobody recovered", model, shards)
			}
			restarts := 0
			for u, reads := range probe.log {
				for i, r := range reads {
					want := 1
					switch {
					case i == 0:
						if !r.start {
							t.Fatalf("%s shards %d node %d: a Round call before Start", model, shards, u)
						}
					case r.start:
						if m.Faults == nil || m.Faults.keep {
							t.Fatalf("%s shards %d node %d: a second Start", model, shards, u)
						}
						if reads[i-1].round > 1 {
							restarts++
						}
					case m.Mode == CONGEST && i == 1:
						want = reads[0].round // Start and Round share the wake-up tick
					default:
						want = reads[i-1].round + 1
					}
					if r.round != want {
						t.Fatalf("%s shards %d node %d: reading %d (start %v) is %d, want %d; readings %v",
							model, shards, u, i, r.start, r.round, want, reads)
					}
				}
			}
			if m.Faults != nil && !m.Faults.keep && restarts == 0 {
				t.Errorf("%s shards %d: no rejoin restarted a node that had stepped", model, shards)
			}
		}
	}
}

func TestPortSendCapEnforced(t *testing.T) {
	g := graph.Path(2)
	// A ninth send on one port in one round must be rejected, in CONGEST
	// and ASYNC alike.
	for _, mode := range []Mode{CONGEST, ASYNC} {
		_, err := Run(Config{Graph: g, Seed: 1, Model: ModelSpec{Mode: mode}}, portSenderProto{portSendCap + 1})
		if !errors.Is(err, ErrDoubleSend) || !strings.Contains(err.Error(), "cap 8") {
			t.Fatalf("mode %d: err = %v, want ErrDoubleSend at cap 8", mode, err)
		}
	}
	// Eight sends are the constant-factor bundling relaxation: tolerated,
	// and every message counts.
	res, err := Run(Config{Graph: g, Seed: 1, MaxRounds: 2}, portSenderProto{portSendCap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2*portSendCap { // both nodes, round 1's sends delivered in round 2
		t.Errorf("messages = %d, want %d", res.Messages, 2*portSendCap)
	}
	// LOCAL has no per-port budget.
	res, err = Run(Config{Graph: g, Seed: 1, MaxRounds: 2, Model: ModelSpec{Mode: LOCAL}}, portSenderProto{3 * portSendCap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2*3*portSendCap {
		t.Errorf("LOCAL messages = %d, want %d", res.Messages, 2*3*portSendCap)
	}
}

type fatMsg struct{}

func (fatMsg) Bits() int { return 1 << 20 }

type fatSenderProto struct{}

func (fatSenderProto) New(info NodeInfo) Process { return fatSender{} }

type fatSender struct{}

func (fatSender) Start(c *Context)                  {}
func (fatSender) Round(c *Context, inbox []Message) { c.Send(0, fatMsg{}) }

func TestCongestBitCapEnforced(t *testing.T) {
	g := graph.Path(2)
	if _, err := Run(Config{Graph: g, Seed: 1}, fatSenderProto{}); !errors.Is(err, ErrBitCap) {
		t.Fatalf("err = %v, want ErrBitCap", err)
	}
	// LOCAL mode allows arbitrarily large messages.
	res, err := Run(Config{Graph: g, Seed: 1, Model: ModelSpec{Mode: LOCAL}, MaxRounds: 3}, fatSenderProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bits != res.Messages<<20 {
		t.Errorf("Bits = %d for %d messages of 2^20 bits", res.Bits, res.Messages)
	}
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(3)
	if _, err := Run(Config{Graph: nil}, floodOnceProto{}); err == nil {
		t.Error("nil graph accepted")
	}
	if _, err := Run(Config{Graph: g, IDs: []int64{1, 2}}, floodOnceProto{}); err == nil {
		t.Error("short ID slice accepted")
	}
	if _, err := Run(Config{Graph: g, IDs: []int64{1, 1, 2}}, floodOnceProto{}); err == nil {
		t.Error("duplicate IDs accepted")
	}
	if _, err := Run(Config{Graph: g, Wake: []int{1}}, floodOnceProto{}); err == nil {
		t.Error("short wake slice accepted")
	}
}

func TestMaxRoundsCap(t *testing.T) {
	g := graph.Ring(4)
	res, err := Run(Config{Graph: g, Seed: 1, MaxRounds: 7}, babblerProto{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.HitRoundCap || res.Rounds != 7 {
		t.Errorf("HitRoundCap=%v Rounds=%d", res.HitRoundCap, res.Rounds)
	}
	if res.Messages != int64(7*g.DegreeSum()) {
		// Every node broadcasts every round; the final round's sends stay
		// undelivered, so 7 delivery phases carry rounds 1..7 minus the
		// last outbox: 6 full broadcasts delivered... see assertion below.
		t.Logf("messages = %d", res.Messages)
	}
}

type babblerProto struct{}

func (babblerProto) New(info NodeInfo) Process { return babbler{} }

type babbler struct{}

func (babbler) Start(c *Context)                  {}
func (babbler) Round(c *Context, inbox []Message) { c.Broadcast(tokenMsg{int64(c.Round())}) }

func TestDeterminism(t *testing.T) {
	g := graph.Torus(4, 4)
	run := func(shards int) *Result {
		res, err := Run(Config{Graph: g, Seed: 42, MaxRounds: 50, Shards: shards}, coinProto{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, c := run(1), run(1), run(4)
	if a.Messages != b.Messages || a.Rounds != b.Rounds || a.Bits != b.Bits {
		t.Errorf("single-shard runs diverge: %+v vs %+v", a, b)
	}
	if a.Messages != c.Messages || a.Rounds != c.Rounds || a.Bits != c.Bits {
		t.Errorf("4-shard run diverges: %+v vs %+v", a, c)
	}
	for i := range a.Statuses {
		if a.Statuses[i] != c.Statuses[i] {
			t.Fatalf("status mismatch at node %d", i)
		}
	}
}

// coinProto uses node coins so determinism of seeding is actually tested.
type coinProto struct{}

func (coinProto) New(info NodeInfo) Process { return &coinProc{} }

type coinProc struct{ sent int }

func (p *coinProc) Start(c *Context) {}
func (p *coinProc) Round(c *Context, inbox []Message) {
	if p.sent < 5 {
		port := c.Rand().Intn(c.Degree())
		c.Send(port, tokenMsg{c.Rand().Int63n(1000)})
		p.sent++
		return
	}
	if c.Rand().Intn(2) == 0 {
		c.Decide(NonLeader)
	} else {
		c.Decide(Leader)
	}
	c.Halt()
}

func TestNodeSeedStability(t *testing.T) {
	// Changing either the run seed or the node index must change the seed.
	if NodeSeed(1, 0) == NodeSeed(1, 1) {
		t.Error("node seeds collide across nodes")
	}
	if NodeSeed(1, 0) == NodeSeed(2, 0) {
		t.Error("node seeds collide across runs")
	}
	if NodeSeed(7, 3) != NodeSeed(7, 3) {
		t.Error("node seed not deterministic")
	}
}

func TestBitsFor(t *testing.T) {
	tests := []struct {
		v    int64
		want int
	}{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {255, 8}, {256, 9}, {-5, 3},
	}
	for _, tt := range tests {
		if got := BitsFor(tt.v); got != tt.want {
			t.Errorf("BitsFor(%d) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestUniqueLeaderPredicate(t *testing.T) {
	r := &Result{Statuses: []Status{Leader, NonLeader}, Leaders: []int{0}}
	if !r.UniqueLeader() {
		t.Error("want unique leader")
	}
	r2 := &Result{Statuses: []Status{Leader, Undecided}, Leaders: []int{0}}
	if r2.UniqueLeader() {
		t.Error("undecided node should not count as success")
	}
	r3 := &Result{Statuses: []Status{Leader, Leader}, Leaders: []int{0, 1}}
	if r3.UniqueLeader() {
		t.Error("two leaders should fail")
	}
}

func TestDeadlockedSleepersStop(t *testing.T) {
	// All nodes wake only on message: nothing ever happens; the engine
	// must detect the dead network rather than spin to MaxRounds.
	g := graph.Path(4)
	wake := []int{WakeOnMessage, WakeOnMessage, WakeOnMessage, WakeOnMessage}
	res, err := Run(Config{Graph: g, Wake: wake, Seed: 1, MaxRounds: 1000}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HitRoundCap {
		t.Error("engine failed to detect dead network")
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", res.Rounds)
	}
}

func TestStatusString(t *testing.T) {
	if Undecided.String() != "undecided" || Leader.String() != "elected" || NonLeader.String() != "non-elected" {
		t.Error("bad status strings")
	}
}

// TestContextIsTheModel: the exported methods of Context are exactly the
// rows of the node's-interface table in docs/ARCHITECTURE.md § "The
// event-driven engine", each one a thing the paper's model lets a node
// know or do. A method added to Context fails here until the table
// says what it gives a node; one removed fails until its row goes.
func TestContextIsTheModel(t *testing.T) {
	data, err := os.ReadFile("../../docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## The event-driven engine\n")
	if start < 0 {
		t.Fatal(`ARCHITECTURE.md has no section "The event-driven engine"`)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "| `Context` method |") {
			inTable = true
			continue
		}
		if !inTable || strings.HasPrefix(line, "|---") {
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			break
		}
		documented = append(documented, strings.Trim(strings.SplitN(line, " | ", 2)[0], "| `"))
	}
	if len(documented) == 0 {
		t.Fatal("ARCHITECTURE.md § \"The event-driven engine\" has no `Context` method table")
	}
	typ := reflect.TypeOf(&Context{})
	methods := make([]string, typ.NumMethod())
	for i := range methods {
		methods[i] = typ.Method(i).Name
	}
	for _, m := range methods {
		if !slices.Contains(documented, m) {
			t.Errorf("Context.%s is not in ARCHITECTURE.md's table of the node's interface", m)
		}
	}
	for _, m := range documented {
		if !slices.Contains(methods, m) {
			t.Errorf("ARCHITECTURE.md lists Context.%s, which Context does not have", m)
		}
	}
	if len(documented) != len(methods) {
		t.Errorf("ARCHITECTURE.md lists %d Context methods, Context has %d", len(documented), len(methods))
	}
}
