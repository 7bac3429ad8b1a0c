package sim

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ule/internal/graph"
)

// mustMatchReference runs cfg through the reference interpreter and
// through the event engine, requires deeply equal Results and returns it.
func mustMatchReference(t *testing.T, cfg Config, p Protocol) *Result {
	t.Helper()
	want, err := runReference(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("engine diverges from the reference:\nreference: %+v\nevent:     %+v", want, got)
	}
	return got
}

// chaosProto is the randomized differential's protocol: every node acts on
// its own coins — sends on random ports, decides a status once, halts — when
// it is started, when it receives, and when a quiet period it chose for
// itself runs out. Some quiet periods it declares with IdleUntil (finite
// and Forever), truthfully: until quietUntil its Round on an empty inbox
// draws no coin and does nothing. With violate set it occasionally breaks
// the model (an invalid port, a payload over the CONGEST budget, a ninth
// message on one port in one round).
type chaosProto struct{ violate bool }

func (p chaosProto) New(NodeInfo) Process { return &chaosProc{violate: p.violate} }

type chaosProc struct {
	violate    bool
	quietUntil int
	hinted     bool
}

func (p *chaosProc) Start(c *Context) { p.act(c) }

func (p *chaosProc) Round(c *Context, inbox []Message) {
	if len(inbox) > 0 || c.Round() >= p.quietUntil {
		p.act(c)
	} else if p.hinted {
		c.IdleUntil(p.quietUntil) // still idle: a hint lapses with every step
	}
}

func (p *chaosProc) act(c *Context) {
	rng := c.Rand()
	for k := rng.Intn(3); k > 0; k-- {
		port := rng.Intn(c.Degree())
		var pl Payload = tokenMsg{rng.Int63n(1 << 20)}
		if p.violate && rng.Intn(60) == 0 {
			port = c.Degree()
		}
		if p.violate && rng.Intn(60) == 0 {
			pl = fatMsg{}
		}
		c.Send(port, pl)
	}
	if p.violate && rng.Intn(60) == 0 {
		for range portSendCap + 1 {
			c.Send(0, tokenMsg{1})
		}
	}
	if rng.Intn(4) == 0 {
		// A status is final: the draw is made every time, the decision
		// only from ⊥.
		if s := Status(rng.Intn(3)); c.Status() == Undecided {
			c.Decide(s)
		}
	}
	if rng.Intn(4) == 0 {
		c.Halt()
		return
	}
	p.hinted = false
	switch rng.Intn(8) {
	case 0: // until a message comes
		p.quietUntil, p.hinted = Forever, true
	case 1, 2:
		p.quietUntil, p.hinted = c.Round()+2+rng.Intn(10), true
	case 3, 4: // quiet without saying so: stepped, to no effect
		p.quietUntil = c.Round() + 2 + rng.Intn(10)
	default: // busy: act again next round
		p.quietUntil = c.Round() + 1
	}
	if p.hinted {
		c.IdleUntil(p.quietUntil)
	}
}

// TestReferenceRandomSchedules is the randomized differential between the
// event engine and the reference interpreter: random small graphs, and on
// each four runs through one reused Runner at random shard counts, pooled
// and inline, over random synchronous configurations — wake schedules with
// rounds ≤ 0 and beyond the cap, StopWhenQuiet, the crossing instrument,
// and protocols that break the model's send rules. Results must be deeply
// equal and failing runs must fail with the same words, and every class of
// model violation must come up. Seeded: a failure names its iteration.
func TestReferenceRandomSchedules(t *testing.T) {
	defer SetMinPooledWork(minPooledWork)() // restored; set per run below
	rng := rand.New(rand.NewSource(17))
	violations := map[error]int{ErrBadPort: 0, ErrBitCap: 0, ErrDoubleSend: 0}
	for iter := 0; iter < 3000; iter++ {
		n := 2 + rng.Intn(31)
		var g *graph.Graph
		switch kind := rng.Intn(4); {
		case kind == 0 && n >= 3:
			g = graph.Ring(n)
		case kind == 1:
			g = graph.Star(n)
		case kind == 2:
			g = graph.Path(n)
		default:
			var err error
			if g, err = graph.RandomConnected(n, n-1+rng.Intn(min(2*n, n*(n-1)/2-n+2)), rng); err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 4; run++ {
			cfg := Config{
				Graph: g, Seed: rng.Int63(), MaxRounds: 1 + rng.Intn(60),
				Model:         ModelSpec{Mode: []Mode{0, CONGEST, LOCAL}[rng.Intn(3)]},
				StopWhenQuiet: rng.Intn(2) == 0,
				Shards:        1 + rng.Intn(4),
			}
			if rng.Intn(2) == 0 {
				u := rng.Intn(n)
				cfg.WatchEdges = [][2]int{{u, g.Neighbor(u, rng.Intn(g.Degree(u)))}}
			}
			switch rng.Intn(3) {
			case 1: // adversarial: one node wakes the rest
				cfg.Wake = make([]int, n)
				for u := range cfg.Wake {
					cfg.Wake[u] = WakeOnMessage
				}
				cfg.Wake[rng.Intn(n)] = 1
			case 2: // arbitrary, from "never" to past the round cap
				cfg.Wake = make([]int, n)
				for u := range cfg.Wake {
					cfg.Wake[u] = rng.Intn(cfg.MaxRounds+8) - 2
				}
			}
			proto := chaosProto{violate: rng.Intn(3) == 0}
			minPooledWork = []int{0, math.MaxInt}[rng.Intn(2)]

			want, wantErr := runReference(cfg, proto)
			got, gotErr := r.Run(cfg, proto)
			switch {
			case wantErr != nil && gotErr != nil:
				if wantErr.Error() != gotErr.Error() {
					t.Fatalf("iteration %d run %d (%s, %+v): errors differ:\nreference: %v\nevent:     %v", iter, run, g.Name(), cfg, wantErr, gotErr)
				}
				for class := range violations {
					if errors.Is(gotErr, class) {
						violations[class]++
					}
				}
			case wantErr != nil || gotErr != nil:
				t.Fatalf("iteration %d run %d (%s, %+v): one side failed:\nreference: %v\nevent:     %v", iter, run, g.Name(), cfg, wantErr, gotErr)
			case !reflect.DeepEqual(want, got):
				t.Fatalf("iteration %d run %d (%s, %+v): results differ:\nreference: %+v\nevent:     %+v", iter, run, g.Name(), cfg, want, got)
			}
		}
	}
	for class, seen := range violations {
		if seen == 0 {
			t.Errorf("no run failed with %v", class)
		}
	}
}

// lateBadPortProto has every node awake in round 3 send on a port it does
// not have — from Start if that is the round it wakes in, from Round
// otherwise.
type lateBadPortProto struct{}

func (lateBadPortProto) New(NodeInfo) Process { return lateBadPort{} }

type lateBadPort struct{}

func (lateBadPort) Start(c *Context) {
	if c.Round() == 3 {
		c.Send(c.Degree(), tokenMsg{1})
	}
}

func (p lateBadPort) Round(c *Context, _ []Message) { p.Start(c) }

// TestModelViolationLowestNode pins which violation a failing run reports
// when several nodes break the model in one round: the lowest-numbered
// node's, whether it erred in Round (node 1, awake since round 1) or in
// Start (node 6, woken that very round), on every engine layout and in
// the reference.
func TestModelViolationLowestNode(t *testing.T) {
	defer SetMinPooledWork(minPooledWork)() // restored; set per run below
	cfg := Config{Graph: graph.Path(8), Seed: 1, Wake: []int{-1, 1, -1, -1, -1, -1, 3, -1}}
	_, err := runReference(cfg, lateBadPortProto{})
	if err == nil {
		t.Fatal("the reference ran a send on a missing port")
	}
	want := "sim: send on invalid port: node 1 port 2 (degree 2)"
	if err.Error() != want {
		t.Errorf("reference: %q, want %q", err, want)
	}
	for _, shards := range []int{1, 2, 4} {
		for _, work := range []int{0, math.MaxInt} {
			cfg.Shards, minPooledWork = shards, work
			if _, err := Run(cfg, lateBadPortProto{}); err == nil || err.Error() != want {
				t.Errorf("shards=%d minPooledWork=%d: %v, want %q", shards, work, err, want)
			}
		}
	}
}
