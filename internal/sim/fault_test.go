package sim

import (
	"reflect"
	"slices"
	"testing"

	"ule/internal/graph"
)

func TestParseFaults(t *testing.T) {
	cases := []struct {
		spec string
		want string // canonical Name round-trip ("" means parse error)
	}{
		{"", "none"},
		{"none", "none"},
		{"crash:0.2", "crash:0.2"},
		{"crash:0.2:32", "crash:0.2:32"},
		{"crash:0.2:64", "crash:0.2"}, // explicit default window
		{"crash@5:1,2,3", "crash@5:1,2,3"},
		{"crashrec:0.5:16", "crashrec:0.5:16"},
		{"crashrec:0.5:16:keep", "crashrec:0.5:16:keep"},
		{"churn:0.3:8", "churn:0.3:8"},
		{"drop:0.1", "drop:0.1"},
		{"crash:0.2+drop:0.1", "crash:0.2+drop:0.1"},
		{"crashrec:1:4:keep+drop:0.5", "crashrec:1:4:keep+drop:0.5"},
		{"crash:1.5", ""},
		{"crash:-0.1", ""},
		{"crash:0.2:0", ""},
		{"crash@0:1", ""},
		{"crash@5:", ""},
		{"crash@5:1,x", ""},
		{"crashrec:0.5", ""},
		{"crashrec:0.5:0", ""},
		{"crashrec:0.5:4:retain", ""},
		{"churn:0.3", ""},
		{"drop:0", ""},
		{"drop:0.1+drop:0.2", ""},
		{"crash:0.1+churn:0.1:4", ""},
		{"lightning:0.5", ""},
	}
	for _, c := range cases {
		fs, err := ParseFaults(c.spec)
		if c.want == "" {
			if err == nil {
				t.Errorf("ParseFaults(%q): want error, got %q", c.spec, fs.Name())
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseFaults(%q): %v", c.spec, err)
			continue
		}
		if got := fs.Name(); got != c.want {
			t.Errorf("ParseFaults(%q).Name() = %q, want %q", c.spec, got, c.want)
		}
		if c.want == "none" {
			continue
		}
		// Canonical names parse back to an equivalent schedule.
		fs2, err := ParseFaults(fs.Name())
		if err != nil {
			t.Errorf("re-parse %q: %v", fs.Name(), err)
		} else if !reflect.DeepEqual(fs, fs2) {
			t.Errorf("round-trip of %q changed the schedule", c.spec)
		}
	}
}

// TestCrashAtTargets pins the full observable outcome of an adversarial
// crash on a deterministic workload: node 4 of an 8-ring dies at tick 2,
// before the flood wave (started by node 0 at tick 1) reaches it. Every
// live node still floods (14 messages); the two wave fronts die at node
// 4's inbox (2 dropped deliveries); node 4 ends undecided and crashed.
func TestCrashAtTargets(t *testing.T) {
	fs, err := ParseFaults("crash@2:4")
	if err != nil {
		t.Fatal(err)
	}
	n := 8
	wake := make([]int, n)
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[0] = 1
	res, err := Run(Config{
		Graph: graph.Ring(n), IDs: SequentialIDs(n, 1), Wake: wake, Seed: 1, Model: ModelSpec{Faults: fs},
	}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 || res.Recoveries != 0 {
		t.Errorf("crashes/recoveries = %d/%d, want 1/0", res.Crashes, res.Recoveries)
	}
	if len(res.Crashed) != n || !res.Crashed[4] {
		t.Fatalf("Crashed = %v, want node 4 down", res.Crashed)
	}
	if res.Messages != 14 || res.Dropped != 2 {
		t.Errorf("messages/dropped = %d/%d, want 14/2", res.Messages, res.Dropped)
	}
	for u, s := range res.Statuses {
		want := NonLeader
		if u == 4 {
			want = Undecided
		}
		if s != want {
			t.Errorf("node %d status = %v, want %v", u, s, want)
		}
	}
	if res.Halted {
		t.Error("Halted = true, but the crashed node never halted")
	}
}

// TestCrashRecoveryReset checks that a reset-state revival re-Starts the
// node as a fresh process: the whole ring floods and halts, then the
// recovered node rejoins, floods again into its halted neighborhood and
// idles undecided until the round cap.
func TestCrashRecoveryReset(t *testing.T) {
	fs, err := ParseFaults("crashrec:1:8")
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	res, err := Run(Config{
		Graph: graph.Ring(n), IDs: SequentialIDs(n, 1), Seed: 3, Model: ModelSpec{Faults: fs}, MaxRounds: 64,
	}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Recoveries == 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want both > 0", res.Crashes, res.Recoveries)
	}
	if res.Crashes != res.Recoveries {
		t.Errorf("crashes = %d, recoveries = %d, want equal (downtime 8 < 64)", res.Crashes, res.Recoveries)
	}
	for _, down := range res.Crashed {
		if down {
			t.Fatalf("Crashed = %v, want everyone back up", res.Crashed)
		}
	}
	// Rejoined nodes flood again (fresh state), so the message count
	// exceeds the fault-free 2n; then they halt again and the run ends
	// cleanly once the last revival has played out.
	if res.Messages <= int64(2*n) {
		t.Errorf("messages = %d, want > %d (rejoined nodes re-flood)", res.Messages, 2*n)
	}
	if res.HitRoundCap {
		t.Error("HitRoundCap = true, want clean termination after the revivals")
	}
}

// TestCrashRecoveryKeep checks persisted-state revival: a node that had
// already decided and halted before its crash stays halted after it, so
// the run ends cleanly and no second flood happens.
func TestCrashRecoveryKeep(t *testing.T) {
	fs, err := ParseFaults("crashrec:1:8:keep")
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	res, err := Run(Config{
		Graph: graph.Ring(n), IDs: SequentialIDs(n, 1), Seed: 3, Model: ModelSpec{Faults: fs}, MaxRounds: 64,
	}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Recoveries == 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want both > 0", res.Crashes, res.Recoveries)
	}
	// With everyone starting at round 1 the flood finishes within the
	// crash window; nodes keep their halted state through the crash, so
	// the extra traffic of the reset model must not appear. Messages can
	// only be lost (in-flight to a crashed node), never added.
	if res.Messages > int64(2*n) {
		t.Errorf("messages = %d, want <= %d (no re-flood with kept state)", res.Messages, 2*n)
	}
	if res.HitRoundCap {
		t.Error("HitRoundCap = true, want clean termination with kept state")
	}
}

// TestDropAllIsolates checks the lossy-link extreme: with drop:1 every
// message is lost at send time, charged to the sender, and nobody else
// ever wakes.
func TestDropAllIsolates(t *testing.T) {
	fs, err := ParseFaults("drop:1")
	if err != nil {
		t.Fatal(err)
	}
	n := 6
	wake := make([]int, n)
	for i := range wake {
		wake[i] = WakeOnMessage
	}
	wake[0] = 1
	res, err := Run(Config{
		Graph: graph.Ring(n), IDs: SequentialIDs(n, 1), Wake: wake, Seed: 1, Model: ModelSpec{Faults: fs},
	}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 2 || res.Dropped != 2 {
		t.Errorf("messages/dropped = %d/%d, want 2/2", res.Messages, res.Dropped)
	}
	if res.Bits == 0 {
		t.Error("dropped messages must still be charged bits")
	}
	for u, s := range res.Statuses {
		if u == 0 && s != NonLeader {
			t.Errorf("node 0 status = %v, want non-elected", s)
		}
		if u != 0 && s != Undecided {
			t.Errorf("node %d status = %v, want undecided (isolated)", u, s)
		}
	}
	if res.Rounds != 1 {
		t.Errorf("rounds = %d, want 1 (network dead after the lost flood)", res.Rounds)
	}
}

// TestChurnDeterministic runs a full-churn workload twice and demands
// identical results, including the fault counters.
func TestChurnDeterministic(t *testing.T) {
	fs, err := ParseFaults("churn:1:4")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Graph: graph.Ring(8), IDs: SequentialIDs(8, 1), Seed: 7, Model: ModelSpec{Faults: fs}, MaxRounds: 48,
	}
	a, err := Run(cfg, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Crashes == 0 || a.Recoveries == 0 {
		t.Fatalf("crashes/recoveries = %d/%d, want churn activity", a.Crashes, a.Recoveries)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("churn run not deterministic:\n%+v\n%+v", a, b)
	}
}

// startLog records the Round reading of every Start of every node (IDs
// are node indices); its nodes halt in Start, so the network is quiet
// from tick 1 on.
type startLog [][]int

func (l startLog) New(info NodeInfo) Process { return startLogProc{l, int(info.ID)} }

type startLogProc struct {
	l startLog
	u int
}

func (p startLogProc) Start(c *Context) {
	p.l[p.u] = append(p.l[p.u], c.Round())
	c.Halt()
}
func (startLogProc) Round(*Context, []Message) {}

// TestQuietRunKeepsChurnPhases: in a quiet network every fault event
// applies at its due tick, so each churning node leaves at its
// seed-derived phase and rejoins K ticks later. The run ends once every
// node is up again: a leave queued then does not keep a quiet run alive.
// In CONGEST a Start's Round reading is the tick it runs at.
func TestQuietRunKeepsChurnPhases(t *testing.T) {
	const n, seed, k = 64, 7, 5
	fs, err := ParseFaults("churn:0.5:5")
	if err != nil {
		t.Fatal(err)
	}
	log := make(startLog, n)
	res, err := Run(Config{
		Graph: graph.Ring(n), IDs: SequentialIDs(n, 0), Seed: seed, Model: ModelSpec{Faults: fs}, MaxRounds: 300,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	churning, last := 0, 1
	for u, starts := range log {
		if !hitsProb(faultHash(seed, u, faultSaltPart), fs.p) {
			if len(starts) != 1 || starts[0] != 1 {
				t.Errorf("node %d churns not, yet started at %v", u, starts)
			}
			continue
		}
		churning++
		phase := 1 + int(faultHash(seed, u, faultSaltPhase)%k)
		want := []int{1, phase + k}
		if phase == 1 {
			want = want[1:] // it left before its wake-up
		}
		if !slices.Equal(starts, want) {
			t.Errorf("node %d, leave phase %d: started at %v, want %v", u, phase, starts, want)
		}
		last = max(last, phase+k)
	}
	if churning == 0 || res.Recoveries != churning || res.Rounds != last || res.HitRoundCap {
		t.Errorf("%d churning nodes: %d recoveries, %d rounds (cap %v), want one rejoin each and an end at tick %d",
			churning, res.Recoveries, res.Rounds, res.HitRoundCap, last)
	}
}

// TestFaultDeterminismParallel demands byte-identical results from the
// single-shard and the 4-shard engine under every fault model — each
// shard applies its own nodes' fault events before the tick's deliveries,
// so the layout must not be observable.
func TestFaultDeterminismParallel(t *testing.T) {
	n := 64
	for _, spec := range []string{
		"crash:0.3", "crash@3:5,20,40", "crashrec:0.3:8", "crashrec:0.3:8:keep",
		"drop:0.2", "churn:0.4:6", "crashrec:0.2:16+drop:0.1",
	} {
		fs, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{CONGEST, ASYNC} {
			cfg := Config{
				Graph: graph.Ring(n), IDs: SequentialIDs(n, 1), Seed: 11,
				Model: ModelSpec{Mode: mode, Faults: fs}, MaxRounds: 256,
			}
			cfg.Shards = 1
			seq, err := Run(cfg, floodOnceProto{})
			if err != nil {
				t.Fatalf("%s/%s: %v", spec, mode, err)
			}
			cfg.Shards = 4
			par, err := Run(cfg, floodOnceProto{})
			if err != nil {
				t.Fatalf("%s/%s 4 shards: %v", spec, mode, err)
			}
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("%s/%s: 4-shard result differs\nseq: %+v\npar: %+v", spec, mode, seq, par)
			}
		}
	}
}

// TestRunnerFaultReuse interleaves faulty and fault-free runs on one
// Runner: fault state must not leak into later runs (Crashed stays nil,
// results match a fresh Runner's).
func TestRunnerFaultReuse(t *testing.T) {
	fs, err := ParseFaults("crashrec:0.5:8")
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Ring(12)
	clean := Config{Graph: g, IDs: SequentialIDs(12, 1), Seed: 5, MaxRounds: 64}
	faulty := clean
	faulty.Model.Faults = fs

	want, err := Run(clean, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := r.Run(faulty, floodOnceProto{}); err != nil {
			t.Fatal(err)
		}
		got, err := r.Run(clean, floodOnceProto{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Crashed != nil {
			t.Fatalf("fault-free run has Crashed = %v", got.Crashed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("fault-free run after faulty run diverged:\nwant %+v\ngot  %+v", want, got)
		}
	}
}

func TestUniqueLiveLeaderPredicate(t *testing.T) {
	r := &Result{
		Statuses: []Status{NonLeader, Leader, Undecided, NonLeader},
		Leaders:  []int{1},
		Crashed:  []bool{false, false, true, false},
	}
	if !r.UniqueLiveLeader() {
		t.Error("dead undecided node must not invalidate the election")
	}
	if r.UniqueLeader() {
		t.Error("UniqueLeader must still see the undecided node")
	}
	r.Crashed[1] = true // the only leader died
	if r.UniqueLiveLeader() {
		t.Error("a dead leader is not a live leader")
	}
	r.Crashed = nil // fault-free: falls back to UniqueLeader
	if r.UniqueLiveLeader() {
		t.Error("fault-free fallback must match UniqueLeader")
	}
}
