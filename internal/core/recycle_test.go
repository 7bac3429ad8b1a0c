package core

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// poisonRenewals installs the renewal hook for the length of a test: every
// process a Recycler is about to renew has its scalar state and every slot
// of the storage it retained — to the full capacity, not the length —
// overwritten with values no run produces (the poisonReleases idea, one
// lifetime up). A reset that leaves a field or a slot out then runs on
// garbage and moves a transcript instead of passing on a value that
// happened to be right. It returns the number of processes poisoned.
func poisonRenewals(t *testing.T) *int {
	t.Helper()
	poisoned := new(int)
	badKey := kkey{phase: 1 << 20, id: math.MaxInt64}
	badMsg := &kMsg{kind: kElect, ttl: 1 << 20, key: badKey, max: badKey}
	badBox := &flMsg{Origin: math.MinInt64, Rank: math.MinInt64}
	fill := func(ports []int) []int {
		ports = ports[:cap(ports)]
		for i := range ports {
			ports[i] = -7
		}
		return ports
	}
	flood := func(f *flooder) {
		ranks, list := f.ranks[:cap(f.ranks)], f.list[:cap(f.list)]
		for i := range ranks {
			ranks[i] = flRef{port: 99, m: badBox}
		}
		for i := range list {
			list[i] = flState{origin: int64(i + 1), parentPort: 99, pending: 99}
		}
		bad := flKey{rank: math.MinInt64, origin: math.MinInt64}
		*f = flooder{
			min: !f.min, tag: 0x7f, deg: 99, ports: []int{99}, q: scribbledDrip(f.q, badBox), ranks: ranks, list: list,
			self: bad, best: bad, heard: bad, completed: true, won: true,
		}
	}
	badMsgs := func(msgs []sim.Message) []sim.Message {
		msgs = msgs[:cap(msgs)]
		for i := range msgs {
			msgs[i] = sim.Message{Port: 99, Payload: badBox}
		}
		return msgs
	}
	onRenew = func(old sim.Process) {
		*poisoned++
		switch p := old.(type) {
		case *kingdomProc:
			states, elects := p.states[:cap(p.states)], p.elects[:cap(p.elects)]
			for i := range states {
				states[i] = kState{
					key: badKey, parent: 99, children: fill(states[i].children), pending: 99, replied: true,
					agg: badKey, stage2: true, pending2: 99, agg2: badKey, covered2: true,
				}
			}
			for i := range elects {
				elects[i] = kElectIn{port: 99, m: badMsg}
			}
			*p = kingdomProc{
				knownD: !p.knownD, me: -1, zMax: badKey, states: states, candidate: true, phase: 1 << 20,
				doneSent: true, halting: true,
				slab: scribbled(p.slab, *badMsg), elects: elects,
			}
		case *leastelProc:
			flood(&p.fl)
			*p = leastelProc{kind: -1, opt: Options{Epsilon: 0.999, FScale: 1e-9}, fl: p.fl}
		case *floodProc:
			*p = floodProc{me: math.MaxInt64, max: math.MaxInt64, deadline: -1, slab: scribbled(p.slab, idMsg{math.MaxInt64})}
		case *dfsProc:
			*p = dfsProc{
				capExp: -1, started: true, me: -1, smallest: math.MinInt64,
				agent:    dfsAgent{visited: true, parentPort: 99, nextPort: 99},
				pend:     dfsPend{waiting: true, id: -1, bounce: true, bPort: 99, dueRound: -1},
				doneSent: true, slab: scribbled(p.slab, agentMsg{id: -1, back: true}),
			}
		case *clusterProc:
			flood(&p.fl)
			badRec := record{other: -1, owner: -1, ownPort: 99}
			badC := cMsg{kind: cRec, down: true, cluster: -1, rec: badRec}
			*p = clusterProc{
				factor: -1, me: -1, port: scribbledRow(p.port, cPort{heard: true, cluster: -1, child: true, marked: true, owned: 99}),
				joined: true, cluster: -1, parentPort: 99, awaiting: 99, endUpLeft: 99,
				upRecs: scribbledRow(p.upRecs, badRec), sentUp: true,
				queue: scribbledDrip(p.queue, &badC), inPh3: true, overlay: fill(p.overlay), fl: p.fl,
				early: badMsgs(p.early), slab: scribbled(p.slab, badC),
			}
		case *estimateProc:
			flood(&p.flA)
			flood(&p.flB)
			*p = estimateProc{flA: p.flA, flB: p.flB, inB: true, startFwd: true, sawAWin: true}
		case *spannerLEProc:
			flood(&p.fl)
			bs := &p.bs
			picked := bs.picked
			if picked == nil {
				picked = make(map[int64]bool)
			}
			for id := int64(-1); id < 64; id++ { // every identity a small-ID trial can read
				picked[id] = true
			}
			p.bs = baswanaSen{
				k: -1, prob: 2, cluster: -1, sampled: true, port: scribbledRow(bs.port, bsPort{true, true, true, true, -1}),
				picked: picked, ports: fill(bs.ports), slab: scribbled(bs.slab, bsMsg{kind: bsMark, sampled: true, cluster: -1}),
			}
			*p = spannerLEProc{bs: p.bs, startRd: -1, electing: true, fl: p.fl}
		case *lvProc:
			flood(&p.fl)
			*p = lvProc{epochEnd: -1, fl: p.fl, active: true}
		case *trivialProc: // no state
		default:
			t.Errorf("onRenew: %T is renewed but not poisoned", old)
		}
	}
	t.Cleanup(func() { onRenew = nil })
	return poisoned
}

// scribbledRow returns s to its capacity, every element bad.
func scribbledRow[T any](s []T, bad T) []T {
	s = s[:cap(s)]
	for i := range s {
		s[i] = bad
	}
	return s
}

// scribbledDrip returns d with every slot of its queue holding bad for a
// port no node has, and every count at its limit.
func scribbledDrip[P sim.Payload](d drip[P], bad P) drip[P] {
	return drip[P]{q: scribbledRow(d.q, portRef[P]{port: 99, m: bad}), sent: scribbledRow(d.sent, 0xff)}
}

// scribbled returns s with every record of every chunk it ever started
// overwritten with bad, all of them in use and full.
func scribbled[T any](s slab[T], bad T) slab[T] {
	s.chunks = s.chunks[:cap(s.chunks)]
	for i, chunk := range s.chunks {
		chunk = chunk[:cap(chunk)]
		for j := range chunk {
			chunk[j] = bad
		}
		s.chunks[i] = chunk
	}
	s.cur = []T{bad}
	return s
}

// recycleTrial is one election of the recycling battery. Consecutive
// trials differ in everything a renewed process could carry over.
type recycleTrial struct {
	name      string
	seed      int64
	ids       string // "random" (drawn by the Prepared), "small", "anon" (small where the algorithm needs IDs)
	model     string
	shards    int
	opt       Options
	maxRounds int
	bitCap    int  // > 0: the engine aborts the run on the first larger message
	oneAwake  bool // adversarial wake-up
	watch     bool // lower-bound instrument on
}

var recycleTrials = []recycleTrial{
	{name: "congest", seed: 1, ids: "random", model: "congest", shards: 1, watch: true},
	{name: "async-sharded", seed: 2, ids: "small", model: "async+random:4", shards: 2},
	{name: "crash-anon", seed: 3, ids: "anon", model: "crash:0.1", shards: 1,
		opt: Options{Epsilon: 0.3, FScale: 3, SpannerK: 3, DFSBudgetCap: 6, ClusterCandidateFactor: 2}},
	{name: "round-cap", seed: 4, ids: "small", model: "congest", shards: 2, maxRounds: 3},
	{name: "crashrec", seed: 5, ids: "random", model: "async+random:4+crashrec:0.3:2", shards: 2, watch: true},
	{name: "bit-cap", seed: 6, ids: "small", model: "congest", shards: 1, bitCap: 1},
	{name: "crashrec-keep", seed: 7, ids: "small", model: "crashrec:0.3:5:keep", shards: 1, oneAwake: true},
	{name: "churn", seed: 8, ids: "anon", model: "async+fifo:3+churn:0.3:4", shards: 2,
		opt: Options{Epsilon: 0.05, FScale: 0.5}},
	{name: "local", seed: 9, ids: "small", model: "local+drop:0.05", shards: 1, oneAwake: true},
}

// run executes the trial on prep (on its Runner directly, for the bit cap
// RunOpts does not carry) and returns every field of the result, or the
// engine's error.
func (tr recycleTrial) run(t *testing.T, prep *Prepared, res *sim.Result) (string, error) {
	t.Helper()
	m, err := sim.ParseModel(tr.model)
	if err != nil {
		t.Fatal(err)
	}
	maxRounds := tr.maxRounds
	if maxRounds == 0 {
		maxRounds = 1 << 10
	}
	ro := RunOpts{Seed: tr.seed, Model: m, Shards: tr.shards, Opt: tr.opt, MaxRounds: maxRounds}
	switch {
	case tr.ids == "anon" && !prep.Spec().NeedsIDs:
		ro.Anonymous = true
	case tr.ids != "random":
		ro.SmallIDs = true
	}
	if tr.oneAwake {
		ro.Wake = oneAwake(prep.Graph().N())
	}
	if tr.watch {
		ro.WatchEdges = [][2]int{{0, 1}}
	}
	cfg, proto, err := prep.config(ro)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BitCap = tr.bitCap
	if err := prep.runner.RunInto(cfg, proto, res); err != nil {
		return "", err
	}
	return shardResultBytes(t, res), nil
}

// captureProto runs the wrapped protocol and keeps the processes it made.
type captureProto struct {
	sim.Protocol
	procs *[]sim.Process
}

func (p captureProto) New(info sim.NodeInfo) sim.Process {
	proc := p.Protocol.New(info)
	*p.procs = append(*p.procs, proc)
	return proc
}

// stateDiff names the first place two process states differ, "" when
// nothing a run can observe does: slices are compared by length and
// elements, so a nil slice and an emptied one with capacity are equal —
// the one difference a renewed process is allowed — and maps by length and
// entries, so a nil map and an emptied one are equal too.
func stateDiff(path string, a, b reflect.Value) string {
	if a.Kind() != b.Kind() {
		return path + ": kinds differ"
	}
	differ := func(ne bool) string {
		if ne {
			return path
		}
		return ""
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return differ(a.IsNil() != b.IsNil())
		}
		return stateDiff(path, a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := stateDiff(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return path + ": lengths differ"
		}
		for i := 0; i < a.Len(); i++ {
			if d := stateDiff(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
		return ""
	case reflect.Map:
		if a.Len() != b.Len() {
			return path + ": lengths differ"
		}
		for it := a.MapRange(); it.Next(); {
			key := fmt.Sprintf("%s[%v]", path, it.Key())
			if !b.MapIndex(it.Key()).IsValid() {
				return key + ": missing"
			}
			if d := stateDiff(key, it.Value(), b.MapIndex(it.Key())); d != "" {
				return d
			}
		}
		return ""
	case reflect.Bool:
		return differ(a.Bool() != b.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return differ(a.Int() != b.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return differ(a.Uint() != b.Uint())
	case reflect.Float32, reflect.Float64:
		return differ(a.Float() != b.Float())
	default:
		return path + ": " + a.Kind().String() + " fields are not compared"
	}
}

// renewedStateDiff runs one election of proto, then renews every process
// it left behind — poisoned, when the hook is on — and compares each with
// a new one, field by field.
func renewedStateDiff(t *testing.T, cfg sim.Config, proto sim.Recycler) string {
	t.Helper()
	var procs []sim.Process
	if _, err := sim.Run(cfg, captureProto{proto, &procs}); err != nil {
		t.Fatal(err)
	}
	for u, old := range procs {
		info := sim.NodeInfo{ID: int64(u) + 1, HasID: true, Degree: cfg.Graph.Degree(u), Know: cfg.Know}
		renewed := proto.Renew(old, info)
		if d := stateDiff(fmt.Sprintf("node %d: %T", u, renewed), reflect.ValueOf(renewed), reflect.ValueOf(proto.New(info))); d != "" {
			return d
		}
		for _, f := range flooders(renewed) {
			for _, r := range f.q.q[:cap(f.q.q)] {
				if r.m != nil {
					return fmt.Sprintf("node %d: the emptied drip queue pins a box", u)
				}
			}
		}
	}
	return ""
}

// flooders returns the flooders of a flood-family process.
func flooders(p sim.Process) []*flooder {
	switch p := p.(type) {
	case *leastelProc:
		return []*flooder{&p.fl}
	case *clusterProc:
		return []*flooder{&p.fl}
	case *estimateProc:
		return []*flooder{&p.flA, &p.flB}
	case *spannerLEProc:
		return []*flooder{&p.fl}
	case *lvProc:
		return []*flooder{&p.fl}
	}
	return nil
}

// TestRecycledProcessesMatchFresh is what licenses sim.Recycler: for every
// registered algorithm, a sequence of trials on one Prepared — different
// seeds, identifier regimes, options, models, fault schedules, shard
// counts and endings (elected, stopped mid-wave by the round cap, aborted
// by the engine on an oversized message), so each trial inherits the
// leftovers of a different one — must report, trial by trial, exactly
// what the same trial reports on a Prepared of its own, in both orders of
// the sequence, and on a Prepared rebound to the cell after a trial on
// another graph or of another algorithm. The warm sequences run with
// every renewed process poisoned first. What no transcript shows — a
// field Start overwrites before anything reads it, a table that is never
// rewound and only grows — the field-by-field comparison of a renewed
// process with a new one does.
func TestRecycledProcessesMatchFresh(t *testing.T) {
	g, err := graph.FromSpec("random:24:60", 3)
	if err != nil {
		t.Fatal(err)
	}
	other, err := graph.FromSpec("ring:16", 1)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := poisonRenewals(t)
	names := Names()
	for ai, algo := range names {
		prepare := func() *Prepared {
			prep, err := Prepare(g, algo)
			if err != nil {
				t.Fatal(err)
			}
			return prep
		}
		type outcome struct {
			res string
			err error
		}
		fresh := make([]outcome, len(recycleTrials))
		for i, tr := range recycleTrials {
			var res sim.Result
			fresh[i].res, fresh[i].err = tr.run(t, prepare(), &res)
			switch {
			case tr.bitCap > 0 && algo != "trivial": // trivial sends nothing
				if !errors.Is(fresh[i].err, sim.ErrBitCap) {
					t.Fatalf("%s %s: err = %v, want ErrBitCap", algo, tr.name, fresh[i].err)
				}
			case fresh[i].err != nil:
				t.Fatalf("%s %s: %v", algo, tr.name, fresh[i].err)
			case tr.maxRounds > 0 && algo != "trivial" && !res.HitRoundCap:
				t.Fatalf("%s %s: the run ended by itself in %d rounds", algo, tr.name, res.Rounds)
			}
		}
		cfg, proto, err := prepare().config(RunOpts{Seed: 1, MaxRounds: 1 << 10})
		if err != nil {
			t.Fatal(err)
		}
		if d := renewedStateDiff(t, cfg, proto.(sim.Recycler)); d != "" {
			t.Errorf("%s: a renewed process differs from a new one at %s", algo, d)
		}
		legs := []struct {
			name    string
			g       *graph.Graph
			algo    string
			reverse bool
		}{
			{"warm", g, algo, false},
			{"warm, reverse", g, algo, true},
			{"from ring:16", other, algo, false},
			{"from " + names[(ai+1)%len(names)], g, names[(ai+1)%len(names)], false},
		}
		for _, leg := range legs {
			prep, err := Prepare(leg.g, leg.algo)
			if err != nil {
				t.Fatal(err)
			}
			var res sim.Result
			if leg.g != g || leg.algo != algo {
				recycleTrials[0].run(t, prep, &res) // its processes are what the cell renews
				if err := prep.Rebind(g, algo); err != nil {
					t.Fatal(err)
				}
			}
			for k := range recycleTrials {
				i := k
				if leg.reverse {
					i = len(recycleTrials) - 1 - k
				}
				tr := recycleTrials[i]
				got, err := tr.run(t, prep, &res)
				if (err == nil) != (fresh[i].err == nil) || (err != nil && err.Error() != fresh[i].err.Error()) {
					t.Errorf("%s %s (%s): err %v, on a fresh Prepared %v", algo, tr.name, leg.name, err, fresh[i].err)
				} else if got != fresh[i].res {
					t.Errorf("%s %s (%s) diverges from a fresh Prepared:\nwarm:  %s\nfresh: %s", algo, tr.name, leg.name, got, fresh[i].res)
				}
			}
		}
	}
	if *poisoned == 0 {
		t.Error("no process was renewed")
	}
}

// TestRejoinKeepsRecordsInFlight pins the one place a process must not be
// renewed: a node that rejoins mid-run (reset-state recovery, churn).
// Under an asynchronous delay adversary the records its last incarnation
// sent are still on their way when it comes back two ticks later; for the
// protocols that send slab records they point into the old process's
// slab, so the rejoining process has to be a New one. The goldens hold a
// cell of every registered protocol, each at the last commit before that
// protocol's processes were recycled, and the runs are warm and poisoned:
// a rejoin that renewed would scribble over the records in flight and move
// the slab senders' cells (kingdom, kingdom-d, flood), and the other cells
// hold the rejoin and the renewal of every other protocol to its
// transcript.
func TestRejoinKeepsRecordsInFlight(t *testing.T) {
	g, err := graph.FromSpec("torus:5x5", 1)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := poisonRenewals(t)
	for _, cell := range rejoinGolden {
		m, err := sim.ParseModel(cell.model)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := Prepare(g, cell.algo)
		if err != nil {
			t.Fatal(err)
		}
		var res sim.Result
		for pass := 0; pass < 2; pass++ {
			for i, want := range cell.want {
				seed := int64(i + 1)
				ro := RunOpts{Seed: seed, SmallIDs: true, Model: m, MaxRounds: 1 << 10, Shards: int(seed%2) + 1}
				if err := prep.RunInto(ro, &res); err != nil {
					t.Fatal(err)
				}
				if res.Recoveries == 0 {
					t.Fatalf("%s %s seed %d: nobody rejoined", cell.algo, cell.model, seed)
				}
				h := fnv.New64a()
				h.Write([]byte(shardResultBytes(t, &res)))
				if got := h.Sum64(); got != want {
					t.Errorf("%s %s pass %d seed %d: result hash %#x, want %#x (%d recoveries)", cell.algo, cell.model, pass, seed, got, want, res.Recoveries)
				}
			}
		}
	}
	if *poisoned == 0 {
		t.Error("no process was renewed")
	}
}

// rejoinGolden holds the result hashes of TestRejoinKeepsRecordsInFlight's
// cells at seeds 1-3 as the commit before recycling produced them,
// re-taken in resultBytes' present form the way floodGolden's were.
var rejoinGolden = []struct {
	algo, model string
	want        [3]uint64
}{
	{"kingdom", "async+random:8+crashrec:0.5:2", [3]uint64{0x47eced8eb660b116, 0xd4965ef52e7defa7, 0x9c076adf675759f5}},
	{"kingdom", "async+random:8+churn:0.5:2", [3]uint64{0xa333c41b50004d7d, 0xd54ea860422ec997, 0xf857a78bbadf5ec7}},
	{"flood", "async+random:8+churn:0.5:2", [3]uint64{0xb73717907f42ca77, 0xc73e3d94d0678db6, 0x9782d362f595812b}},
	{"cluster", "async+random:8+churn:0.5:2", [3]uint64{0xd5fdd6ba9b8858dd, 0x72299b25450bc65, 0xfcd22275ef920cf6}},
	{"dfs", "async+random:8+crashrec:0.5:2", [3]uint64{0xfbdeb29d17f21c56, 0x1e077d1e063aea6f, 0x658f848234528d0f}},
	{"kingdom-d", "async+random:8+crashrec:0.5:2", [3]uint64{0x3acd8fb276c9442f, 0x3a8893796002365, 0xc83e7bdd7d8823dc}},
	{"lasvegas", "async+random:8+churn:0.5:2", [3]uint64{0xb13c87e6c8504ddf, 0x18469845756275bf, 0x7b4a82db91e6f3a0}},
	{"leastel", "async+random:8+crashrec:0.5:2", [3]uint64{0xc37b818f2ee2a5d9, 0xeb9ac33a5f28437f, 0x918d5812279ebec6}},
	{"leastel-const", "async+random:8+churn:0.5:2", [3]uint64{0x5e9e4002af9e01e7, 0x47c269847ac0c98a, 0xadd884fd83db4eac}},
	{"leastel-estimate", "async+random:8+crashrec:0.5:2", [3]uint64{0xfd2d85ffde20395, 0x3f21589608d43fb1, 0xf39a64b7d6dc3a4c}},
	{"leastel-loglog", "async+random:8+churn:0.5:2", [3]uint64{0x81f47511b045b47, 0x4ee71712ba11a5f3, 0xb77b595d0b006664}},
	{"spanner-le", "async+random:8+crashrec:0.5:2", [3]uint64{0xdbd71daaa6259168, 0x281e9ca4be56be0a, 0x1aa4bf1f1429484e}},
	{"trivial", "async+random:8+churn:0.5:2", [3]uint64{0xa7f5f4c2663ff7b4, 0x47a33c82c5edddb8, 0xae01d0474350d8e8}},
}
