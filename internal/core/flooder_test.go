package core

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ule/internal/graph"
	"ule/internal/sim"
)

func TestFlKeyOrdering(t *testing.T) {
	a := flKey{1, 5}
	b := flKey{1, 6}
	c := flKey{2, 1}
	if !a.less(b) || !b.less(c) || !a.less(c) {
		t.Error("ordering broken")
	}
	if a.less(a) {
		t.Error("irreflexivity broken")
	}
	if !a.less(infKey) || negKey.less(negKey) {
		t.Error("sentinel ordering broken")
	}
}

func TestFlMsgBitsAreLogarithmic(t *testing.T) {
	m := flMsg{Ack: true, Origin: 1 << 40, Rank: 1 << 40, HeardRank: 1 << 40, HeardOrigin: 1 << 40}
	if m.Bits() > 4*41+8 {
		t.Errorf("ack bits %d too large", m.Bits())
	}
	small := flMsg{Origin: 3, Rank: 2}
	if small.Bits() > 16 {
		t.Errorf("small msg %d bits", small.Bits())
	}
	// A tag costs the 3 bits the tagged wrapper used to charge.
	tagged := small
	tagged.Tag = tagPhaseB
	if tagged.Bits() != small.Bits()+3 {
		t.Errorf("tagged msg %d bits, untagged %d", tagged.Bits(), small.Bits())
	}
}

// poisonReleases installs the release hook for the length of a test: every
// box is poisoned as its reader releases it (the impossible key
// MinInt64/MinInt64, which out overwrites on the next draw), so a read
// after release moves a transcript, and a box that arrives already
// poisoned has been released twice.
type releaseCensus struct{ puts, doubles atomic.Int64 }

func poisonReleases(t *testing.T) *releaseCensus {
	t.Helper()
	rc := new(releaseCensus)
	onRelease = func(b *flMsg) {
		rc.puts.Add(1)
		if b.Origin == math.MinInt64 && b.Rank == math.MinInt64 {
			rc.doubles.Add(1)
		}
		b.Origin, b.Rank = math.MinInt64, math.MinInt64
	}
	t.Cleanup(func() { onRelease = nil })
	return rc
}

// wire collects what a flooder under test sends, in order, as the inbox
// entries the far end of each port would read.
type wire []sim.Message

func (w *wire) Send(port int, p sim.Payload) { *w = append(*w, sim.Message{Port: port, Payload: p}) }

// Shard implements sender: a flooder under test runs on one shard.
func (w *wire) Shard() int { return 0 }

// take empties the wire.
func (w *wire) take() []sim.Message {
	out := *w
	*w = nil
	return out
}

// loopback wires two one-port flooders directly together to unit-test the
// echo protocol without the engine.
type loopback struct {
	a, b     flooder
	toA, toB wire
}

func newLoopback() *loopback {
	lb := new(loopback)
	initFlooder(&lb.a, 1, nil, true, 0, &lb.toB, nil)
	initFlooder(&lb.b, 1, nil, true, 0, &lb.toA, nil)
	return lb
}

func (lb *loopback) step() {
	inA, inB := lb.toA.take(), lb.toB.take()
	lb.a.round(inA)
	lb.b.round(inB)
}

func TestFlooderTwoNodeDuel(t *testing.T) {
	rc := poisonReleases(t)
	lb := newLoopback()
	lb.a.start(flKey{rank: 5, origin: 1}, 0)
	lb.b.start(flKey{rank: 9, origin: 2}, 0)
	lb.a.flush()
	lb.b.flush()
	for i := 0; i < 10 && !(lb.a.completed && lb.b.completed); i++ {
		lb.step()
	}
	if !lb.a.completed || !lb.b.completed {
		t.Fatal("echo protocol did not complete")
	}
	if !lb.a.won || lb.b.won {
		t.Errorf("a.won=%v b.won=%v, want true/false", lb.a.won, lb.b.won)
	}
	// b must have adopted a's smaller rank: list length 2.
	if lb.b.listLen() != 2 {
		t.Errorf("b list length %d, want 2", lb.b.listLen())
	}
	if lb.a.listLen() != 1 {
		t.Errorf("a list length %d, want 1", lb.a.listLen())
	}
	// Two announcements, b's rejected and a's adopted with nothing to wait
	// for: one echo each. All four boxes went back, none of them twice.
	if puts, doubles := rc.puts.Load(), rc.doubles.Load(); puts != 4 || doubles != 0 {
		t.Errorf("%d boxes released, %d of them twice; want 4 and 0", puts, doubles)
	}
}

func TestFlooderNonParticipantRelay(t *testing.T) {
	lb := newLoopback()
	lb.a.start(flKey{rank: 5, origin: 1}, 0)
	lb.a.flush()
	for i := 0; i < 10 && !lb.a.completed; i++ {
		lb.step()
	}
	if !lb.a.completed || !lb.a.won {
		t.Fatal("lone participant must win")
	}
	if lb.b.completed || lb.b.listLen() != 1 {
		t.Errorf("b relays one value and completes nothing: completed=%v list %d", lb.b.completed, lb.b.listLen())
	}
	if lb.b.heard != (flKey{5, 1}) {
		t.Errorf("b heard %v", lb.b.heard)
	}
}

// leastElListInvariants is the Lemma 4.3 shape: adopted entries at any node
// form a strictly improving sequence, and the expected list size is
// O(log(#candidates)).
func TestLeastElListInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g, err := graph.RandomConnected(120, 500, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := g.DiameterExact()
	var totalLen float64
	const seeds = 8
	for s := int64(0); s < seeds; s++ {
		res, err := Run(g, "leastel", RunOpts{Seed: s})
		if err != nil {
			t.Fatal(err)
		}
		if !res.UniqueLeader() {
			t.Fatal("election failed")
		}
		// Messages/(2m) approximates the mean list length: each entry is
		// forwarded once per endpoint and echoed once.
		totalLen += float64(res.Messages) / float64(4*g.M())
	}
	mean := totalLen / seeds
	limit := 2 * log2(g.N())
	if mean > limit {
		t.Errorf("mean list length proxy %.2f > %v = 2·log n (Lemma 4.3)", mean, limit)
	}
	if mean < 1 {
		t.Errorf("mean list length proxy %.2f < 1 (accounting bug?)", mean)
	}
	// The list can never exceed D+1 entries: messages <= ~4m(D+1).
	if mean > float64(d+1) {
		t.Errorf("list proxy %.2f exceeds D+1=%d", mean, d+1)
	}
}

// TestElectionSafetyQuick is the core property test: on random graphs
// and seeds, every row that is not a 1/e one finishes each run within its
// round cap and its Table 1 row — the check RunInto makes is the property.
// A deterministic row draws permutation IDs (dfs's time is exponential in
// the smallest), a randomized one random IDs.
func TestElectionSafetyQuick(t *testing.T) {
	var algos []string
	for _, name := range Names() {
		if MustGet(name).Bound.Success != OverE {
			algos = append(algos, name)
		}
	}
	rng := rand.New(rand.NewSource(31))
	prop := func(nRaw, mRaw uint8, seed int64, kind uint8) bool {
		n := 2 + int(nRaw)%40
		maxM := n * (n - 1) / 2
		m := n - 1 + int(mRaw)%(maxM-n+2)
		if m > maxM {
			m = maxM
		}
		g, err := graph.RandomConnected(n, m, rng)
		if err != nil {
			return false
		}
		algo := algos[int(kind)%len(algos)]
		res, err := Run(g, algo, RunOpts{Seed: seed, SmallIDs: MustGet(algo).Deterministic, MaxRounds: 1 << 15})
		return err == nil && !res.HitRoundCap
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestDripRateTwo: the drip queue at cluster's rate of two records per
// port and round, on cluster records.
func TestDripRateTwo(t *testing.T) {
	var (
		w wire
		q drip[*cMsg]
	)
	for i := 0; i < 5; i++ {
		q.push(0, &cMsg{kind: cJoin, cluster: int64(i)})
	}
	q.push(1, &cMsg{kind: cJoin, cluster: 99})
	var sent [][2]int64 // (port, value)
	flush := func() {
		q.flush(&w, 2, 2)
		for _, m := range w.take() {
			sent = append(sent, [2]int64{int64(m.Port), m.Payload.(*cMsg).cluster})
		}
	}
	flush()
	if len(sent) != 3 { // 2 from port 0, 1 from port 1
		t.Fatalf("first flush sent %d, want 3", len(sent))
	}
	if sent[0] != [2]int64{0, 0} || sent[1] != [2]int64{0, 1} {
		t.Error("FIFO order violated")
	}
	sent = nil
	flush()
	flush()
	if len(sent) != 3 || !q.idle() {
		t.Fatalf("remaining flushes sent %d, idle=%v", len(sent), q.idle())
	}
}

// TestFlooderQueueDrip: the one FIFO sends the first flushRate records of
// every port in queue order, keeps the rest in order, and a sent slot lets
// go of its box.
func TestFlooderQueueDrip(t *testing.T) {
	var (
		w wire
		f flooder
	)
	initFlooder(&f, 3, nil, true, 0, &w, nil)
	for i, port := range []int{2, 0, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1} {
		f.out(port).Rank = int64(i)
	}
	type sent struct {
		port int
		rank int64
	}
	flush := func() (out []sent) {
		f.flush()
		for _, m := range w.take() {
			out = append(out, sent{m.Port, m.Payload.(*flMsg).Rank})
		}
		return out
	}
	if got, want := flush(), []sent{{2, 0}, {0, 1}, {2, 2}, {1, 3}, {2, 4}, {1, 5}, {2, 6}, {1, 7}, {1, 9}}; !slices.Equal(got, want) {
		t.Errorf("first flush sent %v, want %v", got, want)
	}
	if f.idle() {
		t.Error("three records are over their port's rate and must wait")
	}
	if got, want := flush(), []sent{{2, 8}, {2, 10}, {1, 11}}; !slices.Equal(got, want) {
		t.Errorf("second flush sent %v, want %v", got, want)
	}
	if !f.idle() {
		t.Error("queue not drained")
	}
	for _, slot := range f.q.q[:cap(f.q.q)] {
		if slot.m != nil {
			t.Fatal("a drained queue still pins a box")
		}
	}
}

// TestFlooderSharedInbox is the ownership rule where it is easiest to
// break: two flooders read one inbox (Corollary 4.5's phases), each takes
// the records under its own tag, the boxes stay intact until both are done,
// and one release onto their shelf returns every flood box once and
// nothing else.
func TestFlooderSharedInbox(t *testing.T) {
	rc := poisonReleases(t)
	var (
		wa, wb wire
		a, b   flooder
	)
	var d boxDepot
	d.ready(1)
	initFlooder(&a, 2, nil, false, tagPhaseA, &wa, &d)
	initFlooder(&b, 2, nil, true, tagPhaseB, &wb, &d)
	inbox := []sim.Message{
		{Port: 0, Payload: &flMsg{Tag: tagPhaseA, Origin: 1, Rank: 7}},
		{Port: 0, Payload: &flMsg{Tag: tagPhaseB, Origin: 2, Rank: 3}},
		{Port: 1, Payload: strayPayload{}},
		{Port: 1},
		{Port: 1, Payload: &flMsg{Tag: tagPhaseB, Origin: 3, Rank: 2}},
	}
	if na, nb := a.handleInbox(inbox), b.handleInbox(inbox); na != 1 || nb != 2 {
		t.Fatalf("handled %d phase-A and %d phase-B records, want 1 and 2", na, nb)
	}
	if a.best != (flKey{7, 1}) || b.best != (flKey{2, 3}) {
		t.Errorf("adopted %v and %v: a flooder read a record that was not intact, or not its own", a.best, b.best)
	}
	if rc.puts.Load() != 0 {
		t.Fatal("handleInbox released a box")
	}
	d.shelf(0).release(inbox)
	if puts, doubles := rc.puts.Load(), rc.doubles.Load(); puts != 3 || doubles != 0 {
		t.Errorf("%d boxes released, %d of them twice; want 3 and 0", puts, doubles)
	}
	a.flush()
	b.flush()
	for tag, w := range map[uint8]*wire{tagPhaseA: &wa, tagPhaseB: &wb} {
		sent := w.take()
		if len(sent) == 0 {
			t.Errorf("flooder %d forwarded nothing", tag)
		}
		for _, m := range sent {
			if got := m.Payload.(*flMsg).Tag; got != tag {
				t.Errorf("flooder %d sent a record tagged %d", tag, got)
			}
		}
	}
}

// TestFlooderIgnoresForeignPayloads: a payload that is not a flood record
// is skipped — never a panic, never a changed transcript, never a release —
// in every protocol of the family, as the type switches over the old boxes
// skipped it.
func TestFlooderIgnoresForeignPayloads(t *testing.T) {
	rc := poisonReleases(t)
	g := graph.Torus(6, 6)
	isRank := func(p sim.Payload) bool { m, ok := p.(*flMsg); return ok && !m.Ack }
	for _, algo := range floodFamily {
		cfg, proto, err := Config(g, algo, RunOpts{Seed: 9, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg, proto)
		if err != nil {
			t.Fatal(err)
		}
		released := rc.puts.Swap(0)
		between := 0
		got, err := sim.Run(cfg, strayProto{proto, isRank, &between})
		if err != nil {
			t.Fatal(err)
		}
		if between == 0 {
			t.Fatalf("%s: no inbox had a stray payload between two announcements", algo)
		}
		if !want.UniqueLeader() || !reflect.DeepEqual(got, want) {
			t.Errorf("%s with stray payloads:\n got %+v\nwant %+v", algo, got, want)
		}
		if n := rc.puts.Swap(0); n != released || n == 0 {
			t.Errorf("%s: %d boxes released with stray payloads in the inboxes, %d without", algo, n, released)
		}
	}
	if rc.doubles.Load() != 0 {
		t.Errorf("%d boxes released twice", rc.doubles.Load())
	}
}

func TestFlooderAddPortIdempotent(t *testing.T) {
	var f flooder
	initFlooder(&f, 3, []int{0, 1}, true, 0, new(wire), nil)
	f.addPort(1)
	f.addPort(2)
	f.addPort(2)
	if !slices.Equal(f.ports, []int{0, 1, 2}) {
		t.Errorf("ports = %v", f.ports)
	}
	// A flood on every port has nothing to add.
	initFlooder(&f, 3, nil, true, 0, new(wire), nil)
	f.addPort(2)
	if f.ports != nil || f.numPorts() != 3 {
		t.Errorf("all-ports flood grew: ports = %v", f.ports)
	}
}

// TestWarmTrialAfterGCAllocatesNoBox: the flood boxes of a run go back to
// the reserve when it ends, and nothing takes them from there but the
// next run, so two collections between warm trials take none of them
// away, and the trials after them allocate no box (with the process-wide
// pool that held them before, two collections emptied it and every box
// was allocated again). The runs are
// split over four shards, so that boxes cross shards and are drawn from
// another shelf than the one they left.
func TestWarmTrialAfterGCAllocatesNoBox(t *testing.T) {
	g := graph.Torus(16, 16)
	for _, algo := range []string{"leastel", "leastel-estimate", "cluster"} {
		prep, err := Prepare(g, algo)
		if err != nil {
			t.Fatal(err)
		}
		var res sim.Result
		trial := func() int {
			before := spares.made
			if err := prep.RunInto(RunOpts{Seed: 3, Shards: 4}, &res); err != nil {
				t.Fatal(err)
			}
			if !res.UniqueLeader() {
				t.Fatalf("%s: no unique leader", algo)
			}
			return spares.made - before
		}
		// The first trial fills the reserve; the next ones draw on it
		// alone.
		for warm := 0; trial() > 0; warm++ {
			if warm == 4 {
				t.Fatalf("%s: warm trials keep allocating boxes", algo)
			}
		}
		for i := 0; i < 3; i++ {
			runtime.GC()
			runtime.GC()
			if made := trial(); made > 0 {
				t.Errorf("%s: a warm trial after two collections allocated %d boxes", algo, made)
			}
		}
	}
}
