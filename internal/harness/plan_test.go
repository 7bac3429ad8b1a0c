package harness

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ule/internal/core"
	"ule/internal/sim"
)

// expandReference is the expansion a Plan replaced: the six-deep loop
// over the axes with the repetitions innermost, materializing every
// trial. Plan.trial(i) must equal its i-th element field for field.
func expandReference(s Spec) ([]Trial, error) {
	s = s.withDefaults()
	var trials []Trial
	for gi, gs := range s.Graphs {
		for _, algo := range s.Algos {
			for _, mode := range s.Modes {
				m, err := parseMode(mode)
				if err != nil {
					return nil, err
				}
				for _, wake := range s.Wakes {
					for _, delay := range s.cellDelays(m) {
						ds, err := sim.ParseDelay(delay)
						if err != nil {
							return nil, err
						}
						if m != sim.ASYNC {
							ds = nil
						}
						for _, fault := range s.faultAxis() {
							fs, err := sim.ParseFaults(fault)
							if err != nil {
								return nil, err
							}
							if fs == nil {
								fault = "" // canonicalize "none"
							}
							for rep := 0; rep < s.Trials; rep++ {
								trials = append(trials, Trial{
									Index:    len(trials),
									Algo:     algo,
									Graph:    gs,
									Mode:     strings.ToLower(mode),
									Wake:     wake,
									Delay:    delay,
									Fault:    fault,
									Rep:      rep,
									Seed:     TrialSeed(s.Seed, rep),
									graphIdx: gi,
									model:    sim.ModelSpec{Mode: m, Delay: ds, Faults: fs},
								})
							}
						}
					}
				}
			}
		}
	}
	return trials, nil
}

// randomSpec draws a spec whose every axis is valid; optional axes are
// left empty about a third of the time so the defaults are exercised.
func randomSpec(rng *rand.Rand) Spec {
	pick := func(pool []string, min int) []string {
		n := min + rng.Intn(len(pool)-min+1)
		out := make([]string, n)
		for i := range out {
			out[i] = pool[rng.Intn(len(pool))]
		}
		if n == 0 {
			return nil
		}
		return out
	}
	return Spec{
		Algos:  pick(core.Names(), 1),
		Graphs: pick([]string{"ring:8", "path:5", "random:12:20", "torus:3x3", "star:6"}, 1),
		Trials: rng.Intn(8), // 0 selects the default of 1
		Seed:   rng.Int63n(5),
		Modes:  pick([]string{"congest", "local", "async", "ASYNC", "Congest", "LOCAL"}, 0),
		Wakes:  pick([]string{"sync", "random:3", "stagger:2", "adversarial"}, 0),
		Delays: pick([]string{"unit", "random:4", "fifo:2"}, 0),
		Faults: pick([]string{"", "none", "crash:0.2", "drop:0.1", "crashrec:0.1:32:keep"}, 0),
	}
}

// TestPlanMatchesReferenceExpansion: the lazy plan is the old trial list.
func TestPlanMatchesReferenceExpansion(t *testing.T) {
	rng := rand.New(rand.NewSource(20240518))
	mixed := 0
	for n := 0; n < 300; n++ {
		spec := randomSpec(rng)
		want, err := expandReference(spec)
		if err != nil {
			t.Fatalf("spec %d %+v: reference: %v", n, spec, err)
		}
		p, err := spec.Compile()
		if err != nil {
			t.Fatalf("spec %d %+v: Compile: %v", n, spec, err)
		}
		if p.Total() != len(want) || spec.NumTrials() != len(want) {
			t.Fatalf("spec %d %+v: Total %d, NumTrials %d, reference %d", n, spec, p.Total(), spec.NumTrials(), len(want))
		}
		sync, async := false, false
		for i := range want {
			if got := p.trial(i); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("spec %d %+v: trial %d\n got %+v\nwant %+v", n, spec, i, got, want[i])
			}
			sync = sync || want[i].model.Mode != sim.ASYNC
			async = async || want[i].model.Mode == sim.ASYNC
		}
		if sync && async {
			mixed++
		}
	}
	if mixed < 50 {
		t.Fatalf("only %d specs mixed synchronous and asynchronous cells", mixed)
	}
}

// benchLikeSpec is cmd/ule-bench's sweep spec: 54 cells.
func benchLikeSpec(trials int) Spec {
	return Spec{
		Algos:     []string{"leastel", "flood", "kingdom"},
		Graphs:    []string{"ring:16", "random:24:60", "torus:4x4"},
		Modes:     []string{"congest", "async"},
		Delays:    []string{"unit", "random:4"},
		Faults:    []string{"none", "crash:0.1"},
		Trials:    trials,
		Seed:      11,
		MaxRounds: 4096,
		SmallIDs:  true,
	}
}

// TestCompileCostIndependentOfTrials: compiling and validating a spec
// costs its cells, not its trials — a million-trial sweep allocates what
// a 54-trial one does, and little.
func TestCompileCostIndependentOfTrials(t *testing.T) {
	validate := func(trials int) func() {
		spec := benchLikeSpec(trials)
		return func() {
			if n, err := spec.Validate(); err != nil || n != 54*trials {
				t.Fatalf("Validate = %d, %v; want %d", n, err, 54*trials)
			}
		}
	}
	small := testing.AllocsPerRun(20, validate(1))
	large := testing.AllocsPerRun(20, validate(18519)) // 10^6 trials
	// A cost in the trials would show as 10^6 objects; a few either way is
	// internal/graph's scratch pool under the race detector, which drops a
	// quarter of what it is given, so the three graph builds draw on the
	// heap unevenly.
	if math.Abs(small-large) > 8 {
		t.Fatalf("Validate allocates %v times at 54 trials and %v times at 10^6", small, large)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	validate(18519)()
	runtime.ReadMemStats(&m1)
	if b := m1.TotalAlloc - m0.TotalAlloc; b > 1<<20 {
		t.Fatalf("validating 10^6 trials allocated %d bytes, want < 1 MiB", b)
	}
	t.Logf("Validate: %v allocations at 54 trials, %v at 10^6", small, large)
}

// TestNumTrialsSaturates: the arithmetic trial count cannot be overflowed
// into passing a cap, and Compile refuses what no document can hold.
func TestNumTrialsSaturates(t *testing.T) {
	spec := Spec{Algos: []string{"flood"}, Graphs: []string{"ring:4"}, Trials: 1 << 62}
	spec.Faults = []string{"", "crash:0.1", "drop:0.1", "crash:0.2"}
	if n := spec.NumTrials(); n <= maxSweepTrials {
		t.Fatalf("NumTrials = %d, want above %d", n, maxSweepTrials)
	}
	if _, err := spec.Compile(); err == nil {
		t.Fatal("Compile accepted a sweep beyond the format's trial limit")
	}
}

// TestPlanReuse: a ranged Run on a Plan that already ran another range
// emits the bytes a fresh Plan does, and a Plan instantiates only the
// graphs its ranges touched.
func TestPlanReuse(t *testing.T) {
	spec := benchLikeSpec(2) // 3 graphs × 18 cells × 2 = 108 trials
	shard := func(p *Plan, r TrialRange) []byte {
		var buf bytes.Buffer
		if _, err := p.Run(RunConfig{
			Workers:  1,
			Range:    &r,
			Emitters: []Emitter{NewShardEmitter(&buf, r.Start, r.Count, BinaryOptions{CheckpointEvery: 5})},
		}); err != nil {
			t.Fatalf("Run %+v: %v", r, err)
		}
		return buf.Bytes()
	}
	built := func(p *Plan) (out []bool) {
		for _, g := range p.graphs {
			out = append(out, g != nil)
		}
		return out
	}
	compile := func() *Plan {
		p, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	first, second := TrialRange{Start: 3, Count: 20}, TrialRange{Start: 30, Count: 30} // graph 0; graphs 0 and 1
	reused := compile()
	if got := built(reused); !reflect.DeepEqual(got, []bool{false, false, false}) {
		t.Fatalf("Compile instantiated graphs: %v", got)
	}
	shard(reused, first)
	if got := built(reused); !reflect.DeepEqual(got, []bool{true, false, false}) {
		t.Fatalf("after %+v graphs built = %v, want only the first", first, got)
	}
	g0 := reused.graphs[0]
	got := shard(reused, second)
	if built := built(reused); !reflect.DeepEqual(built, []bool{true, true, false}) {
		t.Fatalf("after %+v graphs built = %v, want the first two", second, built)
	}
	if reused.graphs[0] != g0 {
		t.Fatal("the second Run rebuilt a graph the first had instantiated")
	}
	// The worker keeps the Prepared of the cell it stopped in, nothing else.
	last := reused.cells[(second.Start+second.Count-1)/reused.reps]
	if ws := reused.states; len(ws) != 1 ||
		ws[0].prep.Graph() != reused.graphs[last.graphIdx] || ws[0].prep.Spec().Name != last.Algo {
		t.Fatalf("the Plan's %d worker states do not hold the Prepared of (%s, %s)", len(ws), last.Graph, last.Algo)
	}
	if want := shard(compile(), second); !bytes.Equal(got, want) {
		t.Fatalf("shard of %+v differs on a reused Plan (%d vs %d bytes)", second, len(got), len(want))
	}
	// And again on the same range: warm caches, same bytes.
	if again := shard(reused, second); !bytes.Equal(again, got) {
		t.Fatal("re-running a range on the same Plan changed its bytes")
	}
}

// TestReportGraphsComplete: Report.Graphs is the whole axis whatever the
// run behind it instantiated — a whole-sweep Run resumed past the first
// graph, and a merge (which builds none), fill the rest on demand and
// hand out the Plan's own instances.
func TestReportGraphsComplete(t *testing.T) {
	spec := benchLikeSpec(2) // 3 graphs × 18 cells × 2 = 108 trials
	opt := BinaryOptions{CheckpointEvery: 5}
	wantPlan, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	want, err := wantPlan.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	check := func(what string, p *Plan, rep *Report, holes bool) {
		t.Helper()
		if p.graphs[0] != nil == holes {
			t.Fatalf("%s: first graph instantiated = %v before Report.Graphs", what, !holes)
		}
		got := rep.Graphs()
		if len(got) != len(want) {
			t.Fatalf("%s: Graphs has %d entries, want %d", what, len(got), len(want))
		}
		for i, g := range got {
			if g == nil || g != p.graphs[i] || g.N() != want[i].N() || g.M() != want[i].M() {
				t.Fatalf("%s: graph %d = %v, want the Plan's %s", what, i, g, spec.Graphs[i])
			}
		}
	}

	dir := t.TempDir()
	var doc bytes.Buffer
	p, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(RunConfig{Workers: 2, Emitters: []Emitter{NewBinaryEmitter(&doc, opt)}})
	if err != nil {
		t.Fatal(err)
	}
	check("whole run", p, rep, false)

	// Killed four fifths in: the resumed run touches the last graph only.
	killed := filepath.Join(dir, "killed.ulsb")
	if err := os.WriteFile(killed, doc.Bytes()[:doc.Len()*4/5], 0o644); err != nil {
		t.Fatal(err)
	}
	ck, em, err := ResumeBinary(killed)
	if err != nil {
		t.Fatal(err)
	}
	if p, err = spec.Compile(); err != nil {
		t.Fatal(err)
	}
	if rep, err = p.Run(RunConfig{Workers: 2, Resume: ck, Emitters: []Emitter{em}}); err != nil {
		t.Fatal(err)
	}
	check("resumed run", p, rep, true)

	shards := []string{
		writeShard(t, dir, spec, TrialRange{Start: 0, Count: 50}, opt),
		writeShard(t, dir, spec, TrialRange{Start: 50, Count: 58}, opt),
	}
	if p, err = spec.Compile(); err != nil {
		t.Fatal(err)
	}
	if rep, err = p.MergeShards(shards, MergeConfig{}); err != nil {
		t.Fatal(err)
	}
	check("merge", p, rep, true)
}
