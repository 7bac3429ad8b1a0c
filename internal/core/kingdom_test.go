package core

import (
	"reflect"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// kingdomGolden is one transcript of the Theorem 4.10 protocol taken
// before its data path was rewritten (PR 15): the rewrite changed what
// the host pays per message, so everything the simulation reports must be
// what it was.
type kingdomGolden struct {
	algo                   string
	seed                   int64
	shards                 int
	messages, bits         int64
	rounds, lastActive     int
	maxMsgBits, leaderNode int
}

func checkKingdomGolden(t *testing.T, g *graph.Graph, w kingdomGolden) {
	t.Helper()
	res, err := Run(g, w.algo, RunOpts{Seed: w.seed, Shards: w.shards})
	if err != nil {
		t.Fatal(err)
	}
	got := kingdomGolden{
		algo: w.algo, seed: w.seed, shards: w.shards,
		messages: res.Messages, bits: res.Bits, rounds: res.Rounds,
		lastActive: res.LastActive, maxMsgBits: res.MaxMsgBits, leaderNode: -1,
	}
	if len(res.Leaders) == 1 {
		got.leaderNode = res.Leaders[0]
	}
	if got != w || !res.UniqueLeader() || !res.Halted {
		t.Errorf("%s seed %d:\n got %+v (leaders %v, halted %v)\nwant %+v, one leader, halted",
			w.algo, w.seed, got, res.Leaders, res.Halted, w)
	}
}

func TestKingdomGoldenTorus96(t *testing.T) {
	g := graph.Torus(96, 96)
	for _, w := range []kingdomGolden{
		{"kingdom", 11, 0, 743244, 61933935, 1008, 1008, 118, 510},
		{"kingdom", 12, 0, 717354, 59654151, 1008, 1008, 118, 9093},
		{"kingdom", 13, 0, 696498, 57805735, 1008, 1008, 118, 6142},
		{"kingdom", 14, 0, 698698, 57996975, 1008, 1008, 118, 6799},
		{"kingdom", 15, 0, 744286, 62057266, 1008, 1008, 118, 6008},
	} {
		checkKingdomGolden(t, g, w)
	}
}

func TestKingdomGoldenTorus32(t *testing.T) {
	g := graph.Torus(32, 32)
	for _, w := range []kingdomGolden{
		{"kingdom", 5, 1, 63866, 4028067, 298, 298, 90, 437},
		{"kingdom-d", 5, 1, 53834, 3325033, 164, 164, 86, 437},
	} {
		checkKingdomGolden(t, g, w)
	}
}

// TestKingdomGoldenCrash pins the sweep cell PR 13 saw stepping every node
// through every one of its 4096 rounds: crashes orphan the waves, no
// message is left in flight, and the parked run must still end at the
// round cap with the transcript it always had. Seed 12 is the same cell
// surviving its one crash.
func TestKingdomGoldenCrash(t *testing.T) {
	g := graph.Torus(4, 4)
	m, err := sim.ParseModel("crash:0.1")
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		Rounds, LastActive int
		Messages, Bits     int64
		HitRoundCap        bool
		Leaders            []int
		Crashes            int
		Dropped            int64
	}
	for seed, want := range map[int64]outcome{
		2:  {4096, 17, 303, 8751, true, nil, 4, 11},
		7:  {4096, 33, 561, 16672, true, nil, 1, 5},
		12: {39, 39, 626, 16888, false, []int{12}, 1, 4},
	} {
		res, err := Run(g, "kingdom", RunOpts{Seed: seed, Model: m, MaxRounds: 4096})
		if err != nil {
			t.Fatal(err)
		}
		got := outcome{res.Rounds, res.LastActive, res.Messages, res.Bits,
			res.HitRoundCap, res.Leaders, res.Crashes, res.Dropped}
		if len(got.Leaders) == 0 {
			got.Leaders = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("crash:0.1 seed %d:\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// strayPayload is a message no kingdom node sends.
type strayPayload struct{}

func (strayPayload) Bits() int { return 1 }

// strayProto runs the wrapped protocol with a foreign payload and a nil
// one slipped behind the first message of every inbox that holds two or
// more; between counts the inboxes where that put them between two
// messages the protocol sorts (sorted says which those are).
type strayProto struct {
	sim.Protocol
	sorted  func(sim.Payload) bool
	between *int
}

func (p strayProto) New(info sim.NodeInfo) sim.Process {
	return &strayProc{Process: p.Protocol.New(info), strayProto: p}
}

type strayProc struct {
	sim.Process
	strayProto
	buf []sim.Message
}

func (p *strayProc) Round(c *sim.Context, inbox []sim.Message) {
	if len(inbox) >= 2 {
		if p.sorted(inbox[0].Payload) && p.sorted(inbox[1].Payload) {
			*p.between++
		}
		p.buf = append(p.buf[:0], inbox[0],
			sim.Message{Port: inbox[0].Port, Payload: strayPayload{}},
			sim.Message{Port: inbox[1].Port})
		inbox = append(p.buf, inbox[1:]...)
	}
	p.Process.Round(c, inbox)
}

// TestKingdomIgnoresForeignPayloads: a payload that is not a kingdom
// message is skipped — never a panic, never a changed transcript — as the
// type switch over the old payload structs skipped it.
func TestKingdomIgnoresForeignPayloads(t *testing.T) {
	g := graph.Torus(6, 6)
	for _, algo := range []string{"kingdom", "kingdom-d"} {
		cfg, proto, err := Config(g, algo, RunOpts{Seed: 9, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg, proto)
		if err != nil {
			t.Fatal(err)
		}
		between := 0
		isElect := func(p sim.Payload) bool { m, ok := p.(*kMsg); return ok && m.kind == kElect }
		got, err := sim.Run(cfg, strayProto{proto, isElect, &between})
		if err != nil {
			t.Fatal(err)
		}
		if between == 0 {
			t.Fatalf("%s: no inbox had a stray payload between two ELECTs", algo)
		}
		if !want.UniqueLeader() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s with stray payloads:\n got %+v\nwant %+v", algo, got, want)
		}
	}
}
