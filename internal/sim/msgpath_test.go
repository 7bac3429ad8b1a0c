package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"ule/internal/graph"
)

// The equivalence battery of the message path: each of the places a
// message passes between Context.Send and Process.Round — the one-check
// broadcast (sendAll), the slab rows, the wheel's lent delivery arrays
// (ASYNC only), the one-pass inbox order, the arrival pass — held to the
// plain thing it replaces.

// sendShell is the part of an engine the send rules read and write, on g,
// as the reference interpreter builds it: one shard, whose send counters
// the Contexts of every node count into.
func sendShell(g *graph.Graph, mode Mode, bitCap, sendCap int) *engine {
	off, _ := g.CSR()
	n := g.N()
	return &engine{
		cfg: Config{Model: ModelSpec{Mode: mode}}, bitCap: bitCap, sendCap: sendCap, round: 3,
		buffers: buffers{
			off: off, out: make([][]outMsg, n), nodeErr: make([]error, n),
			shards: []engineShard{{sendCnt: make([]int32, n)}},
		},
	}
}

// TestBroadcastMatchesSendLoop holds Broadcast and BroadcastExcept to the
// loop they abbreviate — Send on every port but skip, ascending — on nodes
// of degree 0, 1 and 5, for every kind of skip, over every way a send can
// fail and the ways it cannot: the queued row, the per-port send counts
// and the node's error must come out the same.
func TestBroadcastMatchesSendLoop(t *testing.T) {
	// Node 0 is a hub of degree 5, nodes 1-5 its leaves, node 6 isolated.
	g, err := graph.NewFromEdges(7, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	if err != nil {
		t.Fatal(err)
	}
	const bitCap, sendCap = 40, 2
	ok, fat := &tokenMsg{7}, Payload(fatMsg{})
	fill := func(port int) func(c *Context) {
		return func(c *Context) {
			for i := 0; i < sendCap && port < c.Degree(); i++ {
				c.Send(port, ok)
			}
		}
	}
	cases := []struct {
		name string
		mode Mode
		cap  int
		pre  func(c *Context) // what the node did earlier in the round
		pl   Payload
	}{
		{"ok", CONGEST, sendCap, nil, ok},
		{"ok uncapped", LOCAL, 0, nil, ok},
		{"nil payload", CONGEST, sendCap, nil, nil},
		{"over the bit cap", CONGEST, sendCap, nil, fat},
		{"LOCAL oversized", LOCAL, sendCap, nil, fat},
		{"cap reached on port 0", CONGEST, sendCap, fill(0), ok},
		{"cap reached on a middle port", CONGEST, sendCap, fill(2), ok},
		{"cap reached on the last port", CONGEST, sendCap, fill(4), ok},
		{"cap reached by broadcasts", CONGEST, sendCap, func(c *Context) { c.Broadcast(ok); c.Broadcast(ok) }, ok},
		{"one send short of the cap", CONGEST, sendCap, func(c *Context) { c.Send(0, ok) }, ok},
		{"nil payload at a full port", CONGEST, sendCap, fill(0), nil},
		{"node already in error", CONGEST, sendCap, func(c *Context) { c.Send(-1, ok) }, ok},
	}
	for _, tc := range cases {
		for _, u := range []int{6, 1, 0} {
			deg := g.Degree(u)
			for _, skip := range []int{-1, 0, deg / 2, deg - 1, deg, deg + 3} {
				run := func(act func(c *Context)) *engine {
					e := sendShell(g, tc.mode, bitCap, tc.cap)
					c := &Context{eng: e, sh: &e.shards[0], node: u, info: NodeInfo{Degree: deg}}
					if tc.pre != nil {
						tc.pre(c)
					}
					act(c)
					return e
				}
				want := run(func(c *Context) {
					for port := 0; port < c.Degree(); port++ {
						if port != skip {
							c.Send(port, tc.pl)
						}
					}
				})
				acts := map[string]func(c *Context){
					"BroadcastExcept": func(c *Context) { c.BroadcastExcept(skip, tc.pl) },
				}
				if skip < 0 {
					acts["Broadcast"] = func(c *Context) { c.Broadcast(tc.pl) }
				}
				for name, act := range acts {
					got := run(act)
					where := fmt.Sprintf("%s, degree %d, skip %d: %s", tc.name, deg, skip, name)
					if !slices.Equal(got.out[u], want.out[u]) {
						t.Errorf("%s queued %v, the Send loop %v", where, got.out[u], want.out[u])
					}
					if gc, wc := got.shards[0].sendCnt, want.shards[0].sendCnt; !slices.Equal(gc, wc) {
						t.Errorf("%s left send counts %v, the Send loop %v", where, gc, wc)
					}
					if ge, we := fmt.Sprint(got.nodeErr[u]), fmt.Sprint(want.nodeErr[u]); ge != we {
						t.Errorf("%s: error %q, the Send loop's %q", where, ge, we)
					}
				}
			}
		}
	}
}

// capBurstProto tests the per-port send cap across Start and Round. The
// node woken at round 1 sends one token on port 0 and halts; a node that a
// message wakes sends start tokens on port 0 in Start and round more in
// its Round of the same tick, then halts.
type capBurstProto struct{ start, round int }

func (p capBurstProto) New(NodeInfo) Process { return &capBurstProc{p: p} }

type capBurstProc struct{ p capBurstProto }

func (b *capBurstProc) Start(c *Context) {
	n := b.p.start
	if c.SpontaneousWake() {
		n = 1
	}
	for range n {
		c.Send(0, tokenMsg{1})
	}
}

func (b *capBurstProc) Round(c *Context, inbox []Message) {
	if len(inbox) > 0 {
		for range b.p.round {
			c.Send(0, tokenMsg{2})
		}
	}
	c.Halt()
}

// TestPortSendCapSpansStartAndRound: a node's Start and its Round of the
// same tick share one per-port cap. On ring:8 node 4 wakes at round 1 and
// wakes node 3, which sends 5 tokens through port 0 in Start and 4 more
// in Round: the ninth send fails, with the text the engine gave when it
// counted per directed edge. 5 and 3 stay within the cap of 8. The same
// holds in the reference interpreter and at 1, 2 and 4 shards, where
// node 3's wake-up crosses a shard boundary.
func TestPortSendCapSpansStartAndRound(t *testing.T) {
	g := graph.Ring(8)
	if g.Neighbor(4, 0) != 3 || g.Neighbor(3, 0) != 2 {
		t.Fatal("ring:8 numbers its ports otherwise: not the run this test is about")
	}
	wake := make([]int, g.N())
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[4] = 1
	cfg := Config{Graph: g, Wake: wake, Seed: 1}
	const capped = "sim: per-port per-round send cap exceeded: node 3 port 0 round 2 cap 8"
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for _, tc := range []struct {
		p   capBurstProto
		err string
	}{{capBurstProto{5, 4}, capped}, {capBurstProto{5, 3}, ""}} {
		want, err := runReference(cfg, tc.p)
		if errText(err) != tc.err {
			t.Fatalf("%+v: the reference reports %v, want %q", tc.p, err, tc.err)
		}
		for _, shards := range []int{1, 2, 4} {
			cfg.Shards = shards
			got, err := Run(cfg, tc.p)
			switch {
			case errText(err) != tc.err || (err != nil && !errors.Is(err, ErrDoubleSend)):
				t.Errorf("%+v, %d shards: error %v, want %q", tc.p, shards, err, tc.err)
			case err == nil && !reflect.DeepEqual(got, want):
				t.Errorf("%+v, %d shards: engine diverges from the reference:\nreference: %+v\nevent:     %+v", tc.p, shards, want, got)
			}
		}
	}
}

// TestInboxOrderMatchesStableSort holds orderInbox to the inbox contract
// written as a library call: random rows for degrees 1..200 — up to 4·deg
// messages, at most 8 per port, arriving shuffled, in order, reversed, or
// few against the degree — come out as slices.SortStableFunc by port puts
// them, payload for payload, and leave no payload (and no count) in the
// scratch.
func TestInboxOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var o inboxOrder
	for iter := 0; iter < 4000; iter++ {
		deg := 1 + rng.Intn(200)
		k := rng.Intn(4*deg + 1)
		shape := rng.Intn(4)
		if shape == 3 {
			k = rng.Intn(deg/8 + 2) // k ≪ deg
		}
		row := make([]Message, 0, k)
		perPort := make([]int, deg)
		for len(row) < k {
			p := rng.Intn(deg)
			if perPort[p] == 8 {
				continue
			}
			perPort[p]++
			// One payload per message: equal ports stay distinguishable.
			row = append(row, Message{Port: p, Payload: &tokenMsg{int64(len(row))}})
		}
		byPort := func(a, b Message) int { return a.Port - b.Port }
		switch shape {
		case 1:
			slices.SortStableFunc(row, byPort)
		case 2:
			slices.SortStableFunc(row, byPort)
			slices.Reverse(row)
		}
		want := slices.Clone(row)
		slices.SortStableFunc(want, byPort)
		o.orderInbox(row, deg)
		if !slices.Equal(row, want) {
			t.Fatalf("iteration %d (deg %d, k %d, shape %d): row differs from the stable sort by port", iter, deg, k, shape)
		}
		for i, m := range o.tmp[:cap(o.tmp)] {
			if m != (Message{}) {
				t.Fatalf("iteration %d: scratch slot %d still holds %v", iter, i, m)
			}
		}
		for p, c := range o.cnt[:cap(o.cnt)] {
			if c != 0 {
				t.Fatalf("iteration %d: count slot %d left at %d", iter, p, c)
			}
		}
	}
	if len(o.tmp) == 0 {
		t.Fatal("no row took the counting placement")
	}
}

// burstProto outgrows rows. In Start every node sends per·degree+1 tokens
// through port 0; from then on a node folds what it receives — port and
// token, in inbox order — into a digest and answers with one token derived
// from it, so a message out of place moves the bit total, and in round 5
// it decides by the digest's parity and halts.
type burstProto struct{ per int }

func (p burstProto) New(NodeInfo) Process { return &burstProc{per: p.per} }

type burstProc struct {
	per    int
	digest int64
}

func (p *burstProc) Start(c *Context) {
	for i := 0; i <= p.per*c.Degree(); i++ {
		c.Send(0, tokenMsg{int64(i)})
	}
}

func (p *burstProc) Round(c *Context, inbox []Message) {
	for _, m := range inbox {
		p.digest = (p.digest*31 + int64(m.Port)*1009 + m.Payload.(tokenMsg).v) % (1 << 40)
	}
	if c.Round() >= 5 {
		c.Decide(Leader + Status(p.digest%2))
		c.Halt()
	} else if len(inbox) > 0 {
		c.Send(0, tokenMsg{p.digest})
	}
}

// TestRowOutgrowsSlab drives rows past the stretch of the slab they start
// in: an outbox row of 3·degree+1 sends through one port, the inbox rows
// those land in, and the inbox of a star:4096 centre that hears four times
// from every leaf. LOCAL and uncapped, so none of it is a violation. Every
// run equals the reference interpreter's, on a Runner's first run — rows
// re-homed by append as they grow — and on its second, in the arrays the
// first one left.
func TestRowOutgrowsSlab(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Torus(6, 6), graph.Complete(slabRowCap + 8), graph.Star(4096)} {
		cfg := Config{Graph: g, Seed: 5, Model: ModelSpec{Mode: LOCAL}}
		want, err := runReference(cfg, burstProto{3})
		if err != nil {
			t.Fatal(err)
		}
		if want.Messages < int64(3*g.DegreeSum()) {
			t.Fatalf("%s: the reference moved %d messages: the bursts did not happen", g.Name(), want.Messages)
		}
		for _, shards := range []int{1, 3} {
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Shards = shards
			for run := 0; run < 2; run++ {
				got, err := r.Run(cfg, burstProto{3})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("%s, %d shards, run %d: engine diverges from the reference:\nreference: %+v\nevent:     %+v",
						g.Name(), shards, run, want, got)
				}
			}
		}
	}
}

// chatterProto has every node broadcast in every step up to round `until`
// and count what it received into perTick (atomically: shards step
// concurrently). A synchronous run steps every node at every tick; an
// ASYNC one steps a node at each tick a delivery reaches it, so every
// delivery is answered with a broadcast and the traffic never dies out.
type chatterProto struct {
	until   int
	perTick []atomic.Int64
}

func (p *chatterProto) New(NodeInfo) Process { return p }
func (p *chatterProto) Start(c *Context)     {}
func (p *chatterProto) peak() (peak int64) {
	for i := range p.perTick {
		peak = max(peak, p.perTick[i].Load())
	}
	return peak
}

func (p *chatterProto) Round(c *Context, inbox []Message) {
	p.perTick[c.Round()].Add(int64(len(inbox)))
	if c.Round() >= p.until {
		c.Halt()
		return
	}
	c.Broadcast(tokenMsg{1})
}

// deliveryStorage sums the capacity of every []delivery the Runner's
// wheels hold: in ring slots, overflow buckets, recycled buckets, spares.
func deliveryStorage(r *Runner) (total int) {
	for i := range r.eng.shards {
		w := r.eng.shards[i].wheel
		for s := range w.slots {
			total += cap(w.slots[s].deliveries)
		}
		for _, b := range w.far {
			total += cap(b.deliveries)
		}
		for _, b := range w.free {
			total += cap(b.deliveries)
		}
		for _, d := range w.spares {
			total += cap(d)
		}
	}
	return total
}

// TestWheelStorageFollowsTraffic pins what a run's delivery records cost
// in memory, after 600 ticks of every node of torus:32x32 broadcasting.
// A synchronous message never enters the wheel, so a CONGEST run leaves
// its wheels with room for no delivery at all — fault-free, and with
// crashes, link drops and watched edges, at 1 and 2
// shards (the flush wrote each tick's messages into a lent array, room
// for the busiest tick; a ring slot that owned its array made it 256×).
// Under async+random:8, where nine ticks are pending at a time, the
// wheels hold room for at most 12× the busiest tick's deliveries.
func TestWheelStorageFollowsTraffic(t *testing.T) {
	g := graph.Torus(32, 32)
	for _, tc := range []struct {
		model string
		watch bool
		bound int64 // room for this many busiest ticks' deliveries
	}{{"congest", false, 0}, {"congest+crash:0.1+drop:0.05", true, 0}, {"async+random:8", false, 12}} {
		m, err := ParseModel(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 9, Model: m}
		if tc.watch {
			cfg.WatchEdges = [][2]int{{0, 1}, {500, 532}}
		}
		for _, shards := range []int{1, 2} {
			r, err := NewRunner(g)
			if err != nil {
				t.Fatal(err)
			}
			p := &chatterProto{until: 600, perTick: make([]atomic.Int64, 700)}
			cfg.Shards = shards
			res, err := r.Run(cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			peak, held := p.peak(), int64(deliveryStorage(r))
			if res.Rounds < 600 || peak < int64(g.DegreeSum())/2 {
				t.Fatalf("%s: %d rounds, busiest tick %d deliveries: not the run this test is about", tc.model, res.Rounds, peak)
			}
			if tc.watch && (res.Crashes == 0 || res.Dropped == 0 || res.FirstCrossing == 0) {
				t.Fatalf("%s: %d crashes, %d dropped, first crossing at %d: not the run this test is about",
					tc.model, res.Crashes, res.Dropped, res.FirstCrossing)
			}
			t.Logf("%s, %d shards: room for %d deliveries, busiest tick %d", tc.model, shards, held, peak)
			if held > tc.bound*peak {
				t.Errorf("%s, %d shards: the wheels hold room for %d deliveries, %.1f× the busiest tick's %d (bound %d×)",
					tc.model, shards, held, float64(held)/float64(peak), peak, tc.bound)
			}
		}
	}
}

// mailStorage sums the bytes of every mailbox row the Runner's shards
// hold, by capacity.
func mailStorage(r *Runner) (total int64) {
	for i := range r.eng.shards {
		for _, row := range r.eng.shards[i].mail {
			total += int64(cap(row)) * int64(unsafe.Sizeof(row[0]))
		}
	}
	return total
}

// TestMailHoldsReferences pins what a cross-shard message costs while it
// waits for the barrier: a 16-byte reference to its sender's outbox slot,
// not a copy of the message. Every node of random:8192:65536 broadcasts
// in every round (a CONGEST all-ports flood) over two shards, so every
// tick carries the same cross-shard messages, one per directed edge across
// the cut; the mailbox rows hold at most 16 B for each, plus the headroom
// append leaves in a row (a 40-byte copy of each message took 40 B and
// more). Per-link sequence numbers are the state of the runs that read
// them: a synchronous run leaves them unallocated, an ASYNC run on the
// same Runner sizes them.
func TestMailHoldsReferences(t *testing.T) {
	g, err := graph.FromSpec("random:8192:65536", 1)
	if err != nil {
		t.Fatal(err)
	}
	n, half := g.N(), (g.N()+1)/2
	cross := int64(0)
	for u := range n {
		for p := range g.Degree(u) {
			if (u < half) != (g.Neighbor(u, p) < half) {
				cross++
			}
		}
	}
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{IDs: SequentialIDs(n, 1), Seed: 2, Shards: 2}
	res, err := r.Run(cfg, rollcallProto{until: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.eng.shards) != 2 || res.Messages != 5*int64(g.DegreeSum()) {
		t.Fatalf("%d shards, %d messages: not the run this test is about", len(r.eng.shards), res.Messages)
	}
	held := mailStorage(r)
	t.Logf("mailbox rows hold %d B for %d cross-shard messages a tick: %.1f B each", held, cross, float64(held)/float64(cross))
	if held > 16*cross*5/4 {
		t.Errorf("mailbox rows hold %d B for the %d cross-shard messages of a tick, %.1f B each (bound 16 B and a quarter's headroom)",
			held, cross, float64(held)/float64(cross))
	}
	if r.eng.linkSeq != nil {
		t.Errorf("a synchronous run allocated %d link sequence numbers", len(r.eng.linkSeq))
	}
	cfg.Model.Mode = ASYNC
	if _, err := r.Run(cfg, rollcallProto{until: 6}); err != nil {
		t.Fatal(err)
	}
	if len(r.eng.linkSeq) != g.DegreeSum() {
		t.Errorf("an ASYNC run left %d link sequence numbers for %d links", len(r.eng.linkSeq), g.DegreeSum())
	}
}

// The arrival pass. A synchronous message is written into its receiver's
// row by the flush of the tick that sent it, one tick before it is
// delivered; the tests below hold what that tick in between may not
// change — a round cap that falls on it, a crash that falls on the next,
// the instruments of a lossy run — to the engine that kept such messages
// in the wheel until their tick.

// rollcallProto has every node broadcast ID·round in every round before
// round `until` and halt there: from tick 2 on every node hears from
// every neighbour at every tick, and payload sizes differ by sender and
// round.
type rollcallProto struct{ until int }

func (p rollcallProto) New(info NodeInfo) Process {
	return &rollcallProc{until: p.until, id: info.ID}
}

type rollcallProc struct {
	until int
	id    int64
}

func (p *rollcallProc) Start(c *Context) {}
func (p *rollcallProc) Round(c *Context, inbox []Message) {
	if c.Round() >= p.until {
		c.Halt()
		return
	}
	c.Broadcast(tokenMsg{p.id * int64(c.Round())})
}

// TestRoundCapLeavesNothingInFlight stops a rollcall at MaxRounds 8, when
// the rows for tick 9 are written: Messages and Bits count rounds 1-7
// exactly — round 8's sends, the largest payloads, were never delivered —
// and the next run on the same Runner equals a fresh
// Runner's, field for field, at 1 and 2 shards.
func TestRoundCapLeavesNothingInFlight(t *testing.T) {
	g := graph.Torus(8, 8)
	n := g.N()
	ids := SequentialIDs(n, 1)
	var msgs, bits int64
	for r := 1; r <= 7; r++ {
		for u := 0; u < n; u++ {
			msgs += int64(g.Degree(u))
			bits += int64(g.Degree(u) * BitsFor(ids[u]*int64(r)))
		}
	}
	capped := Config{IDs: ids, Seed: 3, MaxRounds: 8}
	next := Config{Graph: g, IDs: ids, Seed: 4, WatchEdges: [][2]int{{0, 1}}}
	for _, shards := range []int{1, 2} {
		capped.Shards, next.Shards = shards, shards
		r, err := NewRunner(g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := r.Run(capped, rollcallProto{until: 100})
		if err != nil {
			t.Fatal(err)
		}
		if !res.HitRoundCap || res.Rounds != 8 {
			t.Fatalf("%d shards: HitRoundCap %v, Rounds %d: not the run this test is about", shards, res.HitRoundCap, res.Rounds)
		}
		if res.Messages != msgs || res.Bits != bits || res.LastActive != 8 {
			t.Errorf("%d shards: messages %d, bits %d, last active %d; rounds 1-7 delivered are %d, %d, 8",
				shards, res.Messages, res.Bits, res.LastActive, msgs, bits)
		}
		got, err := r.Run(next, rollcallProto{until: 5})
		if err != nil {
			t.Fatal(err)
		}
		want, err := Run(next, rollcallProto{until: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d shards: the run after a capped one diverges from a fresh Runner's:\nfresh: %+v\nafter: %+v", shards, want, got)
		}
	}
}

// TestCrashDropsPrewrittenArrivals crashes four nodes of a rollcall at
// tick 4, one in each of four shards, when their rows already hold what
// their neighbours sent at tick 3. Those messages are lost, not
// forgotten: Dropped, Messages, Bits and LastActive equal the
// values the engine read when such messages waited in the wheel, at 1, 2
// and 4 shards — 96 drops are four nodes of degree 4 missing rounds 3-8;
// emptying the crashed rows instead would read 80.
func TestCrashDropsPrewrittenArrivals(t *testing.T) {
	fs, err := ParseFaults("crash@4:3,17,40,63")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Torus(8, 8)
	cfg := Config{Graph: g, IDs: SequentialIDs(g.N(), 1), Seed: 5, Model: ModelSpec{Faults: fs}}
	for _, shards := range []int{1, 2, 4} {
		cfg.Shards = shards
		res, err := Run(cfg, rollcallProto{until: 9})
		if err != nil {
			t.Fatal(err)
		}
		if res.Crashes != 4 || res.Rounds != 9 {
			t.Fatalf("%d shards: %d crashes, %d rounds: not the run this test is about", shards, res.Crashes, res.Rounds)
		}
		if res.Dropped != 96 || res.Messages != 1968 || res.Bits != 13824 || res.LastActive != 9 {
			t.Errorf("%d shards: dropped %d, messages %d, bits %d, last active %d; pinned 96, 1968, 13824, 9",
				shards, res.Dropped, res.Messages, res.Bits, res.LastActive)
		}
	}
}

// TestLossyInstrumentsPinned floods torus:8x8 from node 0 over links that
// lose a tenth of the messages, watching three edges: the first crossing
// and the messages before it equal the values the engine read when the
// messages waited in the wheel, at 1 and 2 shards.
func TestLossyInstrumentsPinned(t *testing.T) {
	m, err := ParseModel("congest+drop:0.1")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Torus(8, 8)
	wake := make([]int, g.N())
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[0] = 1
	cfg := Config{
		Graph: g, IDs: SequentialIDs(g.N(), 1), Wake: wake, Seed: 21, Model: m,
		WatchEdges: [][2]int{{27, 28}, {36, 44}, {62, 63}},
	}
	for _, shards := range []int{1, 2} {
		cfg.Shards = shards
		res, err := Run(cfg, floodOnceProto{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Messages != 256 || res.Dropped != 19 {
			t.Fatalf("%d shards: %d messages, %d dropped: not the run this test is about", shards, res.Messages, res.Dropped)
		}
		if res.FirstCrossing != 4 || res.MessagesBeforeCrossing != 20 {
			t.Errorf("%d shards: first crossing at %d after %d messages; pinned 4 after 20",
				shards, res.FirstCrossing, res.MessagesBeforeCrossing)
		}
	}
}
