package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// refFlooder is the flood machine as it stood before it read its wire
// records in place: value copies everywhere, adoption records in a map
// keyed by origin, one drip row per port. It is the model the rebuilt
// flooder is checked against — through random schedules below, and through
// the engine in TestLemma43ListLength.
type refFlooder struct {
	min               bool
	ports             []int
	rows              map[int][]flMsg
	self, best, heard flKey
	states            map[int64]*flState
	listLen           int
	completed, won    bool
}

// refIn is one received record, copied out of its box.
type refIn struct {
	port int
	m    flMsg
}

func newRefFlooder(ports []int, min bool) *refFlooder {
	r := &refFlooder{min: min, ports: slices.Clone(ports), rows: map[int][]flMsg{},
		states: map[int64]*flState{}, best: negKey, heard: negKey}
	if min {
		r.best, r.heard = infKey, infKey
	}
	return r
}

func (r *refFlooder) better(a, b flKey) bool { return r.min && a.less(b) || !r.min && b.less(a) }

func (r *refFlooder) out(port int, m flMsg) { r.rows[port] = append(r.rows[port], m) }

func (r *refFlooder) fold(k flKey) {
	if r.better(k, r.heard) {
		r.heard = k
	}
}

func (r *refFlooder) ack(port int, m flMsg) {
	r.out(port, flMsg{Ack: true, Origin: m.Origin, Rank: m.Rank, HeardRank: r.heard.rank, HeardOrigin: r.heard.origin})
}

func (r *refFlooder) echo(st *flState, m flMsg) {
	if st.parentPort < 0 {
		r.completed, r.won = true, r.heard == r.self
		return
	}
	r.ack(int(st.parentPort), m)
}

func (r *refFlooder) adopt(k flKey, aux int64, from, pending int) {
	r.best = k
	r.listLen++
	st := &flState{origin: k.origin, parentPort: int32(from), pending: int32(pending)}
	r.states[k.origin] = st
	for _, p := range r.ports {
		if p != from {
			r.out(p, flMsg{Origin: k.origin, Rank: k.rank, Aux: aux})
		}
	}
	if st.pending == 0 {
		r.echo(st, flMsg{Origin: k.origin, Rank: k.rank})
	}
}

func (r *refFlooder) start(self flKey, aux int64) {
	r.self, r.heard = self, self
	r.adopt(self, aux, -1, len(r.ports))
}

func (r *refFlooder) addPort(p int) {
	if !slices.Contains(r.ports, p) {
		r.ports = append(r.ports, p)
	}
}

// handleRound: announcements best first (ascending port, then arrival, on
// ties), then echoes in arrival order.
func (r *refFlooder) handleRound(in []refIn) {
	ranks := slices.DeleteFunc(slices.Clone(in), func(x refIn) bool { return x.m.Ack })
	sort.SliceStable(ranks, func(i, j int) bool {
		a, b := flKey{ranks[i].m.Rank, ranks[i].m.Origin}, flKey{ranks[j].m.Rank, ranks[j].m.Origin}
		return r.better(a, b) || a == b && ranks[i].port < ranks[j].port
	})
	for _, x := range ranks {
		k := flKey{x.m.Rank, x.m.Origin}
		r.fold(k)
		if _, dup := r.states[k.origin]; !dup && r.better(k, r.best) {
			r.adopt(k, x.m.Aux, x.port, len(r.ports)-1)
		} else {
			r.ack(x.port, x.m)
		}
	}
	for _, x := range in {
		if !x.m.Ack {
			continue
		}
		r.fold(flKey{x.m.HeardRank, x.m.HeardOrigin})
		if st := r.states[x.m.Origin]; st != nil && st.pending > 0 {
			if st.pending--; st.pending == 0 {
				r.echo(st, x.m)
			}
		}
	}
}

// flush returns what each port sends this round: the first flushRate
// records of its row.
func (r *refFlooder) flush() map[int][]flMsg {
	sent := map[int][]flMsg{}
	for p, row := range r.rows {
		k := min(flushRate, len(row))
		sent[p], r.rows[p] = row[:k:k], row[k:]
	}
	return sent
}

// The model test's checks, one property each, composed by the driver
// (PRDTs in PAPERS.md state replicated-type guarantees the same way: small
// named predicates, not one validator).

// sameSends: every port sends the reference's records in the reference's
// order, each under the flooder's tag.
func sameSends(sent []sim.Message, want map[int][]flMsg, tag uint8) error {
	got := map[int][]flMsg{}
	for _, s := range sent {
		m := *s.Payload.(*flMsg)
		if m.Tag != tag {
			return fmt.Errorf("port %d: record tagged %d, flooder %d", s.Port, m.Tag, tag)
		}
		m.Tag = 0
		got[s.Port] = append(got[s.Port], m)
	}
	for p, w := range want {
		if !slices.Equal(got[p], w) {
			return fmt.Errorf("port %d sent %+v, reference %+v", p, got[p], w)
		}
		delete(got, p)
	}
	if len(got) != 0 {
		return fmt.Errorf("sends on ports the reference left silent: %+v", got)
	}
	return nil
}

// withinRate: no port carries more than flushRate records a round.
func withinRate(sent []sim.Message) error {
	per := map[int]int{}
	for _, s := range sent {
		if per[s.Port]++; per[s.Port] > flushRate {
			return fmt.Errorf("port %d sent more than %d records in a round", s.Port, flushRate)
		}
	}
	return nil
}

// sameVerdict: the decision inputs — completed, won, best and heard — agree.
func sameVerdict(f *flooder, r *refFlooder) error {
	if f.completed != r.completed || f.won != r.won || f.best != r.best || f.heard != r.heard {
		return fmt.Errorf("completed/won/best/heard %v/%v/%v/%v, reference %v/%v/%v/%v",
			f.completed, f.won, f.best, f.heard, r.completed, r.won, r.best, r.heard)
	}
	return nil
}

// sameList: the least-element lists have one length, and every origin the
// reference adopted has the same parent and the same echoes outstanding.
func sameList(f *flooder, r *refFlooder) error {
	if f.listLen() != r.listLen {
		return fmt.Errorf("list length %d, reference %d", f.listLen(), r.listLen)
	}
	for origin, want := range r.states {
		if got := f.find(origin); got == nil || *got != *want {
			return fmt.Errorf("origin %d: entry %+v, reference %+v", origin, got, *want)
		}
	}
	return nil
}

// sameBacklog: the same number of records waits for a later round, and the
// queue's spare slots pin no box.
func sameBacklog(f *flooder, r *refFlooder) error {
	want := 0
	for _, row := range r.rows {
		want += len(row)
	}
	if len(f.q.q) != want {
		return fmt.Errorf("%d records queued, reference %d", len(f.q.q), want)
	}
	for _, slot := range f.q.q[len(f.q.q):cap(f.q.q)] {
		if slot.m != nil {
			return fmt.Errorf("a sent queue slot still holds its box")
		}
	}
	return nil
}

// TestFlooderMatchesReference drives the flooder and the reference through
// seeded random schedules: both directions, tagged and untagged, all ports
// and port subsets, late and missing starts, origins that collide under
// different ranks (the anonymous failure mode), echoes for origins nobody
// adopted, addPort mid-flood, bursts well above flushRate, foreign payloads
// and another flooder's records in the inbox. The boxes are poisoned on
// release, so a record read after its round shows up as a difference.
func TestFlooderMatchesReference(t *testing.T) {
	rc := poisonReleases(t)
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		minMode, tag, deg := rng.Intn(2) == 0, uint8(rng.Intn(3)), 1+rng.Intn(6)
		var ports []int // nil: the flood uses every port
		refPorts := make([]int, deg)
		for p := range refPorts {
			refPorts[p] = p
		}
		if rng.Intn(2) == 0 {
			ports = slices.Clone(refPorts[:1+rng.Intn(deg)])
			refPorts = ports
		}
		var (
			w wire
			f flooder
		)
		initFlooder(&f, deg, ports, minMode, tag, &w)
		ref := newRefFlooder(refPorts, minMode)
		key := func() flKey { return flKey{rank: 1 + rng.Int63n(12), origin: 1 + rng.Int63n(5)} }
		startAt := rng.Intn(4) - 1 // -1: never; past 0: a late start
		for round := 0; round < 24; round++ {
			if ports != nil && rng.Intn(6) == 0 {
				p := rng.Intn(deg)
				f.addPort(p)
				ref.addPort(p)
			}
			if round == startAt {
				self, aux := key(), rng.Int63n(9)
				f.start(self, aux)
				ref.start(self, aux)
			}
			size := rng.Intn(4)
			if rng.Intn(5) == 0 {
				size = 6 + rng.Intn(20)
			}
			var inbox []sim.Message
			var copies []refIn
			for i := 0; i < size; i++ {
				in := sim.Message{Port: rng.Intn(deg)}
				switch k := key(); rng.Intn(8) {
				case 0:
					in.Payload = strayPayload{}
				case 1:
					in.Payload = &flMsg{Tag: tag + 1, Origin: k.origin, Rank: k.rank}
				case 2, 3, 4:
					h := key()
					in.Payload = &flMsg{Tag: tag, Ack: true, Origin: k.origin, Rank: k.rank, HeardRank: h.rank, HeardOrigin: h.origin}
				default:
					in.Payload = &flMsg{Tag: tag, Origin: k.origin, Rank: k.rank, Aux: rng.Int63n(9)}
				}
				inbox = append(inbox, in)
				if m, ok := in.Payload.(*flMsg); ok && m.Tag == tag {
					c := *m
					c.Tag = 0
					copies = append(copies, refIn{in.Port, c})
				}
			}
			if got := f.round(inbox); got != len(copies) {
				t.Fatalf("seed %d round %d: handled %d records of %d", seed, round, got, len(copies))
			}
			ref.handleRound(copies)
			sent := w.take()
			for _, err := range []error{
				sameSends(sent, ref.flush(), tag), withinRate(sent),
				sameVerdict(&f, ref), sameList(&f, ref), sameBacklog(&f, ref),
			} {
				if err != nil {
					t.Fatalf("seed %d round %d (min=%v tag=%d deg=%d ports=%v): %v", seed, round, minMode, tag, deg, ports, err)
				}
			}
		}
	}
	if rc.doubles.Load() != 0 {
		t.Errorf("%d boxes released twice", rc.doubles.Load())
	}
}

// refWire is a flood record sent by value, as the reference protocol does.
type refWire flMsg

func (m refWire) Bits() int { return (*flMsg)(&m).Bits() }

// refLeastEl is leastel (f = n) on the reference flooder: the same coins,
// the same decisions, value payloads.
type refLeastEl struct{ procs *[]*refLeastelProc }

func (p refLeastEl) New(sim.NodeInfo) sim.Process {
	q := new(refLeastelProc)
	*p.procs = append(*p.procs, q)
	return q
}

type refLeastelProc struct {
	fl      *refFlooder
	me      flKey
	decided bool
}

func (p *refLeastelProc) Start(c *sim.Context) {
	ports := make([]int, c.Degree())
	for i := range ports {
		ports[i] = i
	}
	p.fl = newRefFlooder(ports, true)
	c.Rand().Float64() // the candidate coin, which f = n always wins
	p.me = drawKey(c, rankSpace(c.Know().N))
	p.fl.start(p.me, 0)
	p.step(c)
}

func (p *refLeastelProc) Round(c *sim.Context, inbox []sim.Message) {
	in := make([]refIn, len(inbox))
	for i, m := range inbox {
		in[i] = refIn{m.Port, flMsg(m.Payload.(refWire))}
	}
	p.fl.handleRound(in)
	p.step(c)
}

func (p *refLeastelProc) step(c *sim.Context) {
	for port, row := range p.fl.flush() {
		for _, m := range row {
			c.Send(port, refWire(m))
		}
	}
	switch {
	case p.decided:
	case p.fl.completed && p.fl.won:
		c.Decide(sim.Leader)
		p.decided = true
	case p.fl.completed || p.fl.heard != p.me:
		c.Decide(sim.NonLeader)
		p.decided = true
	}
}

// leastelProbe records the processes of a leastel run.
type leastelProbe struct {
	sim.Protocol
	procs *[]*leastelProc
}

func (p leastelProbe) New(info sim.NodeInfo) sim.Process {
	q := p.Protocol.New(info).(*leastelProc)
	*p.procs = append(*p.procs, q)
	return q
}

// lemma43C is Lemma 4.3's constant made explicit: with every node a
// candidate and simultaneous wake-up in CONGEST, the mean least-element
// list holds at most lemma43C·H_n entries. The entries of a node's list are
// the prefix minima of the ranks in order of distance, so H_n bounds the
// expectation exactly; the census of the commit before the flooder was
// rebuilt read 0.59·H_n on random:256:1024 and 0.81·H_n on torus:16x16 over
// these 64 seeds (worst single seed 0.89·H_n).
const lemma43C = 1.0

// TestLemma43ListLength is the paper's guarantee for this component as an
// executable check: the mean list length over nodes and 64 seeds stays
// within lemma43C·H_n. Every election also runs on the reference flooder,
// which must reach the same list length at every node and the same result.
func TestLemma43ListLength(t *testing.T) {
	const seeds = 64
	for _, spec := range []string{"random:256:1024", "torus:16x16"} {
		g, err := graph.FromSpec(spec, 7)
		if err != nil {
			t.Fatal(err)
		}
		hn := 0.0
		for i := 1; i <= g.N(); i++ {
			hn += 1 / float64(i)
		}
		total := 0
		for seed := int64(1); seed <= seeds; seed++ {
			cfg, proto, err := Config(g, "leastel", RunOpts{Seed: seed, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			var procs []*leastelProc
			res, err := sim.Run(cfg, leastelProbe{proto, &procs})
			if err != nil {
				t.Fatal(err)
			}
			var refProcs []*refLeastelProc
			ref, err := sim.Run(cfg, refLeastEl{&refProcs})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := shardResultBytes(t, res), shardResultBytes(t, ref); got != want || !res.UniqueLeader() {
				t.Fatalf("%s seed %d:\n     got %s\nreference %s", spec, seed, got, want)
			}
			for u, p := range procs {
				if p.fl.listLen() != refProcs[u].fl.listLen {
					t.Fatalf("%s seed %d node %d: list length %d, reference %d", spec, seed, u, p.fl.listLen(), refProcs[u].fl.listLen)
				}
				total += p.fl.listLen()
			}
		}
		mean := float64(total) / float64(seeds*g.N())
		t.Logf("%s: mean list length %.3f = %.2f·H_n", spec, mean, mean/hn)
		if mean > lemma43C*hn || mean < 1 {
			t.Errorf("%s: mean list length %.3f outside [1, %.1f·H_n = %.3f] (Lemma 4.3)", spec, mean, lemma43C, lemma43C*hn)
		}
	}
}
