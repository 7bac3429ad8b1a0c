package harness

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ule/internal/core"
)

// sweepSpec is the shared ≥100-trial matrix used by the determinism and
// speedup tests: 4 algorithms × 2 graphs × 2 wake schedules × 4 reps.
func sweepSpec() Spec {
	return Spec{
		Name:   "determinism-matrix",
		Algos:  []string{"leastel", "leastel-const", "kingdom", "lasvegas"},
		Graphs: []string{"ring:24", "random:32:96", "grid:5x5", "dumbbell:16:60"},
		Wakes:  []string{"sync", "random:4"},
		Trials: 4,
		Seed:   7,
	}
}

func runToJSON(t *testing.T, spec Spec, workers int) ([]byte, *Report) {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Run(spec, RunConfig{Workers: workers, Emitters: []Emitter{NewJSONEmitter(&buf)}})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	return buf.Bytes(), rep
}

func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := sweepSpec()
	if n := spec.NumTrials(); n < 100 {
		t.Fatalf("matrix has %d trials, want >= 100", n)
	}
	seqJSON, seqRep := runToJSON(t, spec, 1)
	parJSON, parRep := runToJSON(t, spec, 8)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("sweep output differs between 1 and 8 workers (%d vs %d bytes)",
			len(seqJSON), len(parJSON))
	}
	if seqRep.Total != parRep.Total || seqRep.Total != spec.NumTrials() {
		t.Fatalf("trial totals: seq=%d par=%d want %d", seqRep.Total, parRep.Total, spec.NumTrials())
	}
	if seqRep.Errors != 0 {
		t.Fatalf("sweep reported %d trial errors", seqRep.Errors)
	}
}

// TestDiameterEstimateSpecField runs a D-dependent algorithm with the
// opt-in estimate and checks (a) the trials are granted and labeled with
// the double-sweep value, and (b) on families where the estimate is exact
// the sweep's trial stream is identical to the all-pairs run, modulo the
// spec echo.
func TestDiameterEstimateSpecField(t *testing.T) {
	base := Spec{
		Name:   "diam-estimate",
		Algos:  []string{"flood", "lasvegas"},
		Graphs: []string{"ring:24", "grid:5x5"},
		Trials: 3,
		Seed:   11,
	}
	est := base
	est.DiameterEstimate = true

	exactJSON, exactRep := runToJSON(t, base, 4)
	estJSON, estRep := runToJSON(t, est, 4)

	plan, err := base.Compile()
	if err != nil {
		t.Fatal(err)
	}
	graphs, err := plan.Graphs()
	if err != nil {
		t.Fatal(err)
	}
	for gi, g := range graphs {
		if g.DiameterEstimate() != g.DiameterExact() {
			t.Fatalf("%s: estimate %d != exact %d (test premise)", base.Graphs[gi], g.DiameterEstimate(), g.DiameterExact())
		}
	}
	for i := range estRep.Groups {
		eg, xg := &estRep.Groups[i], &exactRep.Groups[i]
		if eg.D == 0 {
			t.Fatalf("group %s/%s missing granted D", eg.Algo, eg.Graph)
		}
		if eg.D != xg.D || eg.Messages != xg.Messages || eg.Success != xg.Success {
			t.Fatalf("estimate group %s/%s diverged from exact run", eg.Algo, eg.Graph)
		}
	}
	// The trial streams must be byte-identical; only the spec echo differs.
	trim := func(b []byte) string {
		s := string(b)
		if i := strings.Index(s, "\n\"trials\":["); i >= 0 {
			return s[i:]
		}
		return s
	}
	if trim(estJSON) != trim(exactJSON) {
		t.Fatal("estimate-granted trial stream differs from exact-granted stream on estimate-exact families")
	}
}

func TestJSONDocumentConsumable(t *testing.T) {
	spec := sweepSpec()
	data, rep := runToJSON(t, spec, 4)
	doc, err := ParseDocument(data)
	if err != nil {
		t.Fatalf("ParseDocument: %v", err)
	}
	if doc.Schema != SchemaVersion {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if len(doc.Trials) != spec.NumTrials() {
		t.Fatalf("document has %d trials, want %d", len(doc.Trials), spec.NumTrials())
	}
	if len(doc.Groups) != len(rep.Groups) {
		t.Fatalf("document has %d groups, report %d", len(doc.Groups), len(rep.Groups))
	}
	// Trials must be in index order with deterministic per-rep seeds.
	for i, tr := range doc.Trials {
		if tr.Index != i {
			t.Fatalf("trial %d has index %d", i, tr.Index)
		}
		if tr.Seed != TrialSeed(spec.Seed, tr.Rep) {
			t.Fatalf("trial %d: seed %d, want %d", i, tr.Seed, TrialSeed(spec.Seed, tr.Rep))
		}
		if tr.N == 0 || tr.M == 0 {
			t.Fatalf("trial %d: missing graph dimensions: %+v", i, tr)
		}
	}
	for _, g := range doc.Groups {
		if g.Trials != spec.Trials {
			t.Fatalf("group %v: %d trials, want %d", g, g.Trials, spec.Trials)
		}
		if g.Success < 0 || g.Success > 1 {
			t.Fatalf("group %v: success %f out of range", g, g.Success)
		}
		if g.Messages.Count != g.Trials-g.Errors {
			t.Fatalf("group %v: %d message samples for %d clean trials",
				g, g.Messages.Count, g.Trials-g.Errors)
		}
	}
	// The paired-sample design must make the sync-wake cells reproducible
	// via Report.Group lookup.
	if g := rep.Group("leastel", "ring:24", "congest", "sync"); g == nil || g.Success == 0 {
		t.Fatalf("leastel/ring:24 group missing or never succeeded: %+v", g)
	}
}

func TestCSVEmitter(t *testing.T) {
	spec := Spec{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}, Trials: 3, Seed: 2}
	var buf bytes.Buffer
	if _, err := Run(spec, RunConfig{Workers: 2, Emitters: []Emitter{NewCSVEmitter(&buf)}}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("CSV has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "trial,algo,graph,") {
		t.Fatalf("bad CSV header: %q", lines[0])
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != len(csvHeader) {
			t.Fatalf("CSV row has %d cells, want %d: %q", got, len(csvHeader), line)
		}
	}
}

func TestProgressReporting(t *testing.T) {
	spec := Spec{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}, Trials: 5, Seed: 2}
	var calls, last int
	_, err := Run(spec, RunConfig{Workers: 2, Progress: func(done, total int) {
		calls++
		last = done
		if total != 5 {
			t.Errorf("progress total = %d, want 5", total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 5 || last != 5 {
		t.Fatalf("progress called %d times (last done=%d), want 5/5", calls, last)
	}
}

func TestSpecValidation(t *testing.T) {
	bad := []Spec{
		{},
		{Algos: []string{"leastel"}},
		{Algos: []string{"nosuch"}, Graphs: []string{"ring:8"}},
		{Algos: []string{"leastel"}, Graphs: []string{"nosuch:8"}},
		{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}, Modes: []string{"quantum"}},
		{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}, Wakes: []string{"random:-1"}},
		{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}, Wakes: []string{"sync:3"}},
	}
	for i, spec := range bad {
		if _, err := Run(spec, RunConfig{}); err == nil {
			t.Errorf("spec %d: want error, got nil", i)
		}
	}
}

func TestWakeSchedules(t *testing.T) {
	if w := wakeSchedule("sync", 8, 1); w != nil {
		t.Fatalf("sync schedule = %v, want nil", w)
	}
	w := wakeSchedule("random:4", 8, 1)
	for i, r := range w {
		if r < 1 || r > 4 {
			t.Fatalf("random:4 node %d wakes at %d", i, r)
		}
	}
	again := wakeSchedule("random:4", 8, 1)
	for i := range w {
		if w[i] != again[i] {
			t.Fatalf("random schedule not deterministic at node %d", i)
		}
	}
	w = wakeSchedule("stagger:3", 7, 1)
	for i, r := range w {
		if r != 1+i%3 {
			t.Fatalf("stagger:3 node %d wakes at %d", i, r)
		}
	}
	w = wakeSchedule("adversarial", 9, 5)
	spontaneous := 0
	for _, r := range w {
		if r == 1 {
			spontaneous++
		} else if r != -1 {
			t.Fatalf("adversarial schedule has wake round %d", r)
		}
	}
	if spontaneous != 1 {
		t.Fatalf("adversarial schedule has %d spontaneous wakers, want 1", spontaneous)
	}
}

func TestSmokeSpecRuns(t *testing.T) {
	spec := Smoke()
	rep, err := Run(spec, RunConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total != spec.NumTrials() {
		t.Fatalf("smoke ran %d trials, want %d", rep.Total, spec.NumTrials())
	}
	if rep.Errors != 0 {
		t.Fatalf("smoke sweep reported %d errors", rep.Errors)
	}
	for _, g := range rep.Groups {
		if g.Trials == 0 {
			t.Fatalf("empty group %+v", g)
		}
	}
}

// TestParallelSpeedup demonstrates the ≥2× wall-clock speedup of the pool
// on a multi-core machine. It needs real parallel hardware, so it skips
// below 4 procs and under -short.
func TestParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("speedup measurement skipped in -short mode")
	}
	procs := runtime.GOMAXPROCS(0)
	if procs < 4 {
		t.Skipf("need >= 4 procs for a stable 2x speedup measurement, have %d", procs)
	}
	spec := sweepSpec()
	spec.Trials = 8 // ≥ 256 trials of real work
	start := time.Now()
	seqJSON, _ := runToJSON(t, spec, 1)
	seqElapsed := time.Since(start)
	start = time.Now()
	parJSON, _ := runToJSON(t, spec, procs)
	parElapsed := time.Since(start)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatal("parallel sweep output differs from sequential")
	}
	speedup := float64(seqElapsed) / float64(parElapsed)
	t.Logf("sequential %v, %d workers %v: speedup %.2fx", seqElapsed, procs, parElapsed, speedup)
	if speedup < 2 {
		t.Errorf("speedup %.2fx < 2x (seq %v, par %v)", speedup, seqElapsed, parElapsed)
	}
}

// asyncSpec is the wake × delay coverage matrix: both execution models,
// three wake schedules, three delay schedules.
func asyncSpec() Spec {
	return Spec{
		Name:   "async-matrix",
		Algos:  []string{"leastel", "leastel-const", "kingdom", "cluster"},
		Graphs: []string{"ring:24", "random:32:96"},
		Modes:  []string{"congest", "async"},
		Wakes:  []string{"sync", "stagger:3", "adversarial"},
		Delays: []string{"unit", "random:4", "fifo:4"},
		Trials: 2,
		Seed:   7,
	}
}

func TestAsyncSweepDeterministicAcrossWorkers(t *testing.T) {
	spec := asyncSpec()
	// congest cells collapse the delay axis: (1 + 3) mode-delay cells.
	if want := 4 * 2 * (1 + 3) * 3 * 2; spec.NumTrials() != want {
		t.Fatalf("matrix has %d trials, want %d", spec.NumTrials(), want)
	}
	seqJSON, seqRep := runToJSON(t, spec, 1)
	parJSON, parRep := runToJSON(t, spec, 8)
	if !bytes.Equal(seqJSON, parJSON) {
		t.Fatalf("async sweep output differs between 1 and 8 workers (%d vs %d bytes)",
			len(seqJSON), len(parJSON))
	}
	if seqRep.Errors != 0 || parRep.Errors != 0 {
		t.Fatalf("async sweep reported trial errors: %d/%d", seqRep.Errors, parRep.Errors)
	}
	doc, err := ParseDocument(seqJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range doc.Trials {
		switch tr.Mode {
		case "async":
			if tr.Delay == "" {
				t.Fatalf("async trial %d missing delay_model", tr.Index)
			}
		default:
			if tr.Delay != "" {
				t.Fatalf("sync trial %d carries delay_model %q", tr.Index, tr.Delay)
			}
		}
	}
}

// TestAsyncUnitReproducesSync: ASYNC steps a node only on a delivery, so
// under unit delays a message-driven row (core.Bound.MessageDriven) must
// reproduce its synchronous cells exactly — same message totals, rounds
// and success, trial by trial — and every other row, which acts on an
// empty inbox, must diverge in at least one.
func TestAsyncUnitReproducesSync(t *testing.T) {
	spec := Spec{
		Name:     "async-vs-sync",
		Algos:    core.Names(),
		Graphs:   []string{"ring:24", "random:32:96"},
		Modes:    []string{"congest", "async"},
		Delays:   []string{"unit"},
		Trials:   3,
		Seed:     11,
		SmallIDs: true,
	}
	data, _ := runToJSON(t, spec, 4)
	doc, err := ParseDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		algo, graph string
		rep         int
	}
	sync := make(map[cell]TrialResult)
	for _, tr := range doc.Trials {
		if tr.Mode == "congest" {
			sync[cell{tr.Algo, tr.Graph, tr.Rep}] = tr
		}
	}
	checked, diverged := 0, map[string]bool{}
	for _, tr := range doc.Trials {
		if tr.Mode != "async" {
			continue
		}
		s, ok := sync[cell{tr.Algo, tr.Graph, tr.Rep}]
		if !ok {
			t.Fatalf("no sync twin for trial %d", tr.Index)
		}
		if tr.Messages != s.Messages || tr.Bits != s.Bits || tr.LastActive != s.LastActive ||
			tr.Leaders != s.Leaders || tr.Unique != s.Unique {
			diverged[tr.Algo] = true
			if core.MustGet(tr.Algo).Bound.MessageDriven {
				t.Errorf("%s/%s rep %d: async/unit diverges from sync:\nsync:  %+v\nasync: %+v",
					tr.Algo, tr.Graph, tr.Rep, s, tr)
			}
		}
		checked++
	}
	if checked != spec.NumTrials()/2 {
		t.Fatalf("compared %d pairs, want %d", checked, spec.NumTrials()/2)
	}
	for _, algo := range spec.Algos {
		if !core.MustGet(algo).Bound.MessageDriven && !diverged[algo] {
			t.Errorf("%s is not message-driven, but async/unit reproduced sync in every cell", algo)
		}
	}
}

// TestGuaranteeBreakCountsAsFailure: a trial recorded with a broken Table
// 1 row keeps its measurements, and its cell counts it as a failed run —
// an error, in the message summary, and not a success even where it
// elected a unique leader — while a model violation is an error without
// measurements.
func TestGuaranteeBreakCountsAsFailure(t *testing.T) {
	rec := func(msgs int64, err string) *TrialResult {
		tr := &TrialResult{N: 8, M: 8, Err: err,
			Outcome: core.Outcome{Messages: msgs, Leaders: 1, Unique: true, Halted: true}}
		tr.Algo, tr.Graph = "kingdom", "ring:8"
		return tr
	}
	agg := sweepAgg{byKey: make(map[[6]string]*groupAcc)}
	agg.add(rec(40, ""))
	agg.add(rec(50, fmt.Errorf("%w: kingdom elected 2 leaders", core.ErrGuarantee).Error()))
	agg.add(rec(0, "sim: model violation"))
	agg.add(rec(60, ""))
	var rep Report
	agg.finish(&rep)
	grp := rep.Groups[0]
	if rep.Errors != 2 || grp.Errors != 2 || grp.Trials != 4 {
		t.Fatalf("errors %d (group %d) over %d trials, want 2 over 4", rep.Errors, grp.Errors, grp.Trials)
	}
	if grp.Messages.Count != 3 || grp.Messages.Max != 60 || grp.Success != 2.0/3 {
		t.Fatalf("group success %v over %d message samples (max %v), want 2/3 over 3 (max 60)", grp.Success, grp.Messages.Count, grp.Messages.Max)
	}
}
