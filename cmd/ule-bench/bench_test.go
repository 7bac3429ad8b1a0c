package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {100000, 99},
	} {
		if got := resolvedPercentile(tc.n); got != tc.want {
			t.Errorf("resolvedPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for p, want := range map[float64]float64{50: 50, 99: 99, 99.9: 100, 100: 100, 1: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	if got := tailLatency(xs); got != 90 {
		t.Errorf("tail of 100 samples = %v, want their p90", got)
	}
	if got := tailLatency(xs[:5]); got != 98 {
		t.Errorf("tail of five samples = %v, want their median 98", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), because
// that is what the driver's acceptance rule computes.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{13, 10, 12, 11}, (12.75 - 10.25) / 11.5},
		{[]float64{5, 7}, (7.5 - 4.5) / 6}, // two points extrapolate, as Python does
		{[]float64{3}, 0},
	} {
		if got := quartileSpread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.op", Start: 0, End: 100, Parent: noSpan},
		{Name: "core.RunInto", Start: 10, End: 30, Parent: 0},
		{Name: "core.RunInto", Start: 20, End: 50, Parent: 0}, // overlaps its sibling
		{Name: "graph.FromSpec", Start: 60, End: 70, Parent: 0},
		{Name: "harness.Run", Start: 90, End: 120, Parent: 0},   // outlives the parent
		{Name: "sim.RunInto", Start: 22, End: 28, Parent: 2},    // grandchild
		{Name: "graph.FromSpec", Start: 25, End: 27, Parent: 5}, // great-grandchild
	}
	want := []int64{100 - (40 + 10 + 10), 20, 30 - 6, 10, 30, 6 - 2, 2}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	layers := selfByLayer(spans)
	wantLayers := map[string]int64{"bench": 40, "core": 44, "graph": 12, "harness": 30, "sim": 4}
	if !reflect.DeepEqual(layers, wantLayers) {
		t.Fatalf("selfByLayer = %v, want %v", layers, wantLayers)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer()
	if id := tr.begin("x.y", noSpan, 0); id != noSpan {
		t.Fatalf("begin on an off tracer = %d", id)
	}
	tr.end(noSpan)
	tr.setOn(true)
	root := tr.begin("bench.op", noSpan, 7)
	child := tr.begin("core.RunInto", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Op != 7 || tr.spans[0].End < tr.spans[1].End {
		t.Fatalf("spans = %+v", tr.spans)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	stream := func(seed int64, client int) []byte {
		var buf bytes.Buffer
		s := newRequestStream(seed, client)
		for i := 0; i < 2000; i++ {
			r := s.next()
			buf.WriteString(r.path)
			buf.Write(r.body)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(stream(7, 0), stream(7, 0)) {
		t.Error("same seed, same client: request streams differ")
	}
	if bytes.Equal(stream(7, 0), stream(7, 1)) || bytes.Equal(stream(7, 0), stream(8, 0)) {
		t.Error("another client or seed gave the same request stream")
	}
	// The mix is 80/15/5.
	counts := [numKinds]int{}
	s := newRequestStream(7, 0)
	for i := 0; i < 20000; i++ {
		counts[s.next().kind]++
	}
	for k, want := range [numKinds]float64{0.80, 0.15, 0.05} {
		if got := float64(counts[k]) / 20000; math.Abs(got-want) > 0.01 {
			t.Errorf("%s share = %.3f, want %.2f", kindNames[k], got, want)
		}
	}

	a, _ := json.Marshal(sweepSpec(7, 3))
	b, _ := json.Marshal(sweepSpec(7, 3))
	if !bytes.Equal(a, b) {
		t.Error("same seed: sweep specs differ")
	}
	if n := sweepSpec(7, 3).NumTrials(); n != 54*3 {
		t.Errorf("sweep spec expands to %d trials, want %d", n, 54*3)
	}
}

// smoke runs one workload at about 1/100 size through the real driver.
func smoke(t *testing.T, name string, traced bool) (*result, *detail) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	c := &runCtx{name: name, seed: 5, seconds: 0.15, traced: traced, sz: smokeSizes, root: root}
	res, det, err := runOne(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d notes=%v", name, res.Correct, res.Attempted, res.Failed, det.Notes)
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%s: %d metrics, want %d", name, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: metric %s = %+v (present %v)", name, d.Name, m, ok)
		}
		if !traced && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, d.Name, m.Value)
		}
	}
	return res, det
}

// Every workload, traced: set-up, window, verification and every probe.
func TestSmokeTraced(t *testing.T) {
	measured := map[string][]string{
		"elect-dense":  {"core.self_ms", "graph.build_ms", "sim.deliveries", "sim.ticks", "sim.floor_ns_per_delivery", "core.run_ms.kingdom-torus96", "core.cold_over_warm", "core.config_us", "core.correct_frac"},
		"elect-sparse": {"core.self_ms", "sim.floor_ns_per_tick", "core.run_ms.dfs-torus64", "sim.prepare_ms"},
		"sweep-small":  {"harness.self_ms", "harness.sim_only_trials_per_s.w2", "harness.scale_eff", "harness.emit_ns_per_trial.csv", "harness.bytes_per_trial.bin", "harness.export_json_ms", "harness.decode_ns_per_trial", "harness.allocs_per_trial"},
		"fleet-small":  {"fleet.self_ms", "fleet.overhead_ratio", "fleet.spawn_ms", "fleet.units", "fleet.worker_cpu_s", "harness.merge_ms"},
		"serve-mix":    {"serve.self_ms", "serve.run_election_us_p50", "serve.graph_hit_ratio", "serve.prepared_hit_ratio", "bench.latency_samples"},
	}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			res, _ := smoke(t, def.Name, true)
			for _, name := range measured[def.Name] {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want it measured", name, res.Metrics[name].Value)
				}
			}
		})
	}
}

// The untraced pass prints the end-to-end set, and simulates exactly what
// the traced pass of the same seed does.
func TestSmokeUntracedCountsAgree(t *testing.T) {
	_, traced := smoke(t, "elect-sparse", true)
	_, untraced := smoke(t, "elect-sparse", false)
	if len(untraced.Counts) == 0 || !reflect.DeepEqual(traced.Counts, untraced.Counts) {
		t.Fatalf("traced counts %v, untraced %v", traced.Counts, untraced.Counts)
	}
	_, sweep := smoke(t, "sweep-small", false)
	if sweep.Hashes["sweep.bin"] == "" || sweep.Hashes["sweep.json"] == "" {
		t.Fatalf("sweep-small recorded no output hashes: %v", sweep.Hashes)
	}
}

func TestBaselineGuard(t *testing.T) {
	if err := baselineGuard(0.4, 2, 2, false); err != nil {
		t.Errorf("quiet host refused: %v", err)
	}
	if err := baselineGuard(1.7, 2, 2, false); err == nil {
		t.Error("loaded host accepted")
	}
	if err := baselineGuard(0.4, 1, 2, false); err == nil {
		t.Error("GOMAXPROCS != nproc accepted")
	}
	if err := baselineGuard(1.7, 1, 2, true); err != nil {
		t.Errorf("-force refused: %v", err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(eps []float64, failed int, deliveries int64) *record {
		w := workloadRecord{Name: "elect-dense", CountsAgree: true}
		for _, v := range eps {
			r := runRecord{}
			r.Attempted, r.Failed = 100, failed
			r.Metrics = map[string]metricValue{}
			for _, d := range endToEndDefs {
				r.Metrics[d.Name] = metricValue{1, d.Unit}
			}
			r.Metrics["elections_per_s"] = metricValue{v, "1/s"}
			r.Counts = map[string]int64{"sim.deliveries": deliveries}
			w.Untraced = append(w.Untraced, r)
		}
		w.Traced.Attempted = 100
		return &record{Schema: recordSchema, Seed: 11, Workloads: []workloadRecord{w}}
	}
	steady := []float64{100, 101, 99, 100.5, 99.5}
	for _, tc := range []struct {
		name         string
		b            *record
		bad          int
		row, verdict string
	}{
		{"a/a", mk(steady, 0, 7), 0, "elections_per_s", unchanged},
		{"slower", mk([]float64{70, 71, 69, 70.5, 69.5}, 0, 7), 1, "elections_per_s", regressed},
		{"within bound", mk([]float64{85, 86, 84, 85.5, 84.5}, 0, 7), 0, "elections_per_s", unchanged},
		{"noisy", mk([]float64{60, 100, 140, 80, 120}, 0, 7), 0, "elections_per_s", unresolved},
		{"noisy but all better", mk([]float64{160, 200, 240, 180, 220}, 0, 7), 0, "elections_per_s", unchanged},
		{"more failures", mk(steady, 3, 7), 1, "failed_frac", regressed},
		{"another execution", mk(steady, 0, 8), 1, "counts+hashes", "differs"},
	} {
		var buf bytes.Buffer
		if bad := compareRecords(&buf, mk(steady, 0, 7), tc.b); bad != tc.bad {
			t.Errorf("%s: %d bad rows, want %d\n%s", tc.name, bad, tc.bad, buf.String())
		}
		found := false
		for _, line := range strings.Split(buf.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "elect-dense" && f[1] == tc.row {
				found = f[len(f)-1] == tc.verdict
			}
		}
		if !found {
			t.Errorf("%s: row %s is not %q\n%s", tc.name, tc.row, tc.verdict, buf.String())
		}
	}
}

// BENCHMARK.json is the driver's copy of the dictionary in metrics.go.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"go", "run", "./cmd/ule-bench"}) || !reflect.DeepEqual(doc.Paths, []string{"cmd/ule-bench"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, want %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n%+v\n%+v", doc.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\n%+v\n%+v", doc.PerLayer, perLayerDefs)
	}
	// The contract's limits on what the file may say.
	seen := map[string]bool{}
	name := func(s string) {
		if len(s) == 0 || len(s) > 64 || seen[s] || strings.Trim(s, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" || strings.ContainsAny(s[:1], "_.-") {
			t.Errorf("bad or repeated name %q", s)
		}
		seen[s] = true
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, d := range doc.EndToEnd {
		name(d.Name)
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s")
	}
	for _, d := range doc.PerLayer {
		name(d.Name)
		if len(d.Unit) == 0 || len(d.Unit) > 16 {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 || len(doc.Workloads) > 8 {
		t.Error("too many entries")
	}
}
