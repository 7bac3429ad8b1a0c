package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ule/internal/harness"
)

func TestSweepModeEmitsConsumableJSON(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	jsonPath := filepath.Join(dir, "out.json")
	csvPath := filepath.Join(dir, "out.csv")
	spec := `{"name":"cli-test","algos":["leastel","kingdom"],"graphs":["ring:12","random:16:40"],"trials":3,"seed":5,"small_ids":true}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", specPath, "-workers", "3", "-json", jsonPath, "-csv-out", csvPath, "-progress=false"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := harness.ParseDocument(data)
	if err != nil {
		t.Fatalf("sweep JSON not consumable: %v", err)
	}
	if want := 2 * 2 * 3; doc.TotalTrials != want {
		t.Fatalf("sweep ran %d trials, want %d", doc.TotalTrials, want)
	}
	if len(doc.Groups) != 4 {
		t.Fatalf("sweep produced %d groups, want 4", len(doc.Groups))
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(csv) == 0 {
		t.Fatal("empty CSV output")
	}
}

func TestQuickExperimentThroughHarness(t *testing.T) {
	if err := run([]string{"-quick", "-only", "E12", "-csv"}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinSmokeSpec(t *testing.T) {
	if err := run([]string{"-sweep", "builtin:smoke", "-progress=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepModeAsyncOverride(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	jsonPath := filepath.Join(dir, "out.json")
	spec := `{"name":"cli-async","algos":["leastel"],"graphs":["ring:12"],"trials":2,"seed":5}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", specPath, "-mode", "async", "-delays", "unit,random:4,fifo:4",
		"-json", jsonPath, "-progress=false"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := harness.ParseDocument(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * 2; doc.TotalTrials != want {
		t.Fatalf("override sweep ran %d trials, want %d", doc.TotalTrials, want)
	}
	seen := map[string]bool{}
	for _, tr := range doc.Trials {
		if tr.Mode != "async" {
			t.Fatalf("trial %d mode %q, want async", tr.Index, tr.Mode)
		}
		seen[tr.Delay] = true
	}
	for _, d := range []string{"unit", "random:4", "fifo:4"} {
		if !seen[d] {
			t.Errorf("delay model %q missing from trials", d)
		}
	}
}

func TestSpecOverrides(t *testing.T) {
	spec := harness.Spec{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}}
	sweepOpts{mode: "async", delays: "unit,random:4", faults: "crash:0.2", diamEstimate: true}.apply(&spec)
	if len(spec.Modes) != 1 || spec.Modes[0] != "async" {
		t.Fatalf("modes = %v", spec.Modes)
	}
	if len(spec.Delays) != 2 || spec.Delays[1] != "random:4" {
		t.Fatalf("delays = %v", spec.Delays)
	}
	if len(spec.Faults) != 1 || !spec.DiameterEstimate {
		t.Fatalf("overrides not applied: %+v", spec)
	}

	// Zero overrides leave the spec untouched.
	sweepOpts{}.apply(&spec)
	if len(spec.Modes) != 1 || len(spec.Delays) != 2 || len(spec.Faults) != 1 || !spec.DiameterEstimate {
		t.Fatalf("zero overrides mutated the spec: %+v", spec)
	}
}

// TestSweepModeBinaryAndExport drives the full binary pipeline through
// the CLI: -bin sweep, kill (simulated by truncation), -resume, then
// -from-bin export byte-identical to a straight -json run.
func TestSweepModeBinaryAndExport(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	jsonPath := filepath.Join(dir, "out.json")
	binPath := filepath.Join(dir, "out.ulsb")
	spec := `{"name":"cli-bin","algos":["leastel","kingdom"],"graphs":["ring:12","random:16:40"],"faults":["none","crash:0.2"],"trials":3,"seed":5,"small_ids":true}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", specPath, "-workers", "3",
		"-json", jsonPath, "-bin", binPath, "-checkpoint-every", "8", "-progress=false"}); err != nil {
		t.Fatal(err)
	}
	wantJSON, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}

	// Kill the sweep two-thirds through and resume it via the CLI.
	if err := os.WriteFile(binPath, full[:len(full)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", specPath, "-workers", "2", "-resume", binPath, "-progress=false"}); err != nil {
		t.Fatalf("-resume: %v", err)
	}
	resumed, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resumed, full) {
		t.Fatalf("resumed binary differs from uninterrupted run (%d vs %d bytes)", len(resumed), len(full))
	}

	// Resuming a complete file is a no-op, not an error.
	if err := run([]string{"-sweep", specPath, "-resume", binPath, "-progress=false"}); err != nil {
		t.Fatalf("-resume on complete file: %v", err)
	}

	// -from-bin export reproduces the -json document byte for byte.
	exportPath := filepath.Join(dir, "export.json")
	if err := run([]string{"-from-bin", binPath, "-json", exportPath}); err != nil {
		t.Fatalf("-from-bin: %v", err)
	}
	gotJSON, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("-from-bin export differs from live -json document (%d vs %d bytes)", len(gotJSON), len(wantJSON))
	}
}

// TestFromBinCSVOut: -from-bin honours -csv-out, alone and together with
// -json, and the CSV is the one a live -csv-out run of the same sweep
// writes — the only way a resumed sweep, which cannot carry text
// emitters, ever yields its CSV.
func TestFromBinCSVOut(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	spec := `{"name":"cli-csv","algos":["leastel","kingdom"],"graphs":["ring:12"],"faults":["none","crash:0.2"],"trials":3,"seed":5,"small_ids":true}`
	if err := os.WriteFile(at("spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-sweep", at("spec.json"), "-workers", "2", "-progress=false",
		"-json", at("live.json"), "-csv-out", at("live.csv"), "-bin", at("out.ulsb")}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-from-bin", at("out.ulsb"), "-csv-out", at("alone.csv")}); err != nil {
		t.Fatalf("-from-bin -csv-out: %v", err)
	}
	if err := run([]string{"-from-bin", at("out.ulsb"), "-csv-out", at("both.csv"), "-json", at("both.json")}); err != nil {
		t.Fatalf("-from-bin -csv-out -json: %v", err)
	}
	for _, pair := range [][2]string{{"alone.csv", "live.csv"}, {"both.csv", "live.csv"}, {"both.json", "live.json"}} {
		got, err := os.ReadFile(at(pair[0]))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(at(pair[1]))
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s differs from %s (%d vs %d bytes)", pair[0], pair[1], len(got), len(want))
		}
	}
}

// TestSweepSpecUnknownFieldNamed: a spec key the schema does not have is
// an error naming it, not a sweep run without it.
func TestSweepSpecUnknownFieldNamed(t *testing.T) {
	dir := t.TempDir()
	for _, c := range []struct{ name, body, field string }{
		{"typo", `{"name":"typo","algos":["leastel"],"graphs":["ring:8"],"trails":5,"seed":3,"shards":2}`, "trails"},
		{"shards", `{"algos":["leastel"],"graphs":["ring:8"],"shards":2}`, "shards"},
	} {
		specPath := filepath.Join(dir, c.name+".json")
		if err := os.WriteFile(specPath, []byte(c.body), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run([]string{"-sweep", specPath, "-json", filepath.Join(dir, c.name+".out.json"), "-progress=false"})
		if err == nil || !strings.Contains(err.Error(), `"`+c.field+`"`) {
			t.Errorf("%s: err = %v, want one naming %q", c.name, err, c.field)
		}
	}
	if err := run([]string{"-sweep", "builtin:smoke", "-shards", "2", "-progress=false"}); err == nil {
		t.Error("-shards accepted")
	}
}

func TestSweepModeResumeExcludesTextEmitters(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(`{"name":"x","algos":["leastel"],"graphs":["ring:8"],"trials":1,"seed":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-sweep", specPath, "-resume", filepath.Join(dir, "missing.ulsb"),
		"-json", filepath.Join(dir, "out.json"), "-progress=false"})
	if err == nil {
		t.Fatal("-resume with -json succeeded, want error")
	}
}

// TestOutputPins holds `-quick` and a builtin:smoke sweep's JSON and
// binary documents to the SHA-256 sums in testdata/pins.json. `make pins`
// prints fresh sums.
func TestOutputPins(t *testing.T) {
	dir := t.TempDir()
	stdoutOf := func(args ...string) []byte {
		f, err := os.CreateTemp(dir, "stdout")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		saved := os.Stdout
		os.Stdout = f
		err = run(args)
		os.Stdout = saved
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	binPath := filepath.Join(dir, "smoke.bin")
	got := map[string][]byte{
		"ule-experiments/quick":      stdoutOf("-quick"),
		"ule-experiments/smoke-json": stdoutOf("-sweep", "builtin:smoke", "-json", "-", "-bin", binPath, "-progress=false"),
	}
	var err error
	if got["ule-experiments/smoke-bin"], err = os.ReadFile(binPath); err != nil {
		t.Fatal(err)
	}
	checkPins(t, got)
}

// checkPins compares the SHA-256 of each output in got with its entry in
// testdata/pins.json, and requires an output for every entry under the
// prefixes of got's keys. With ULE_PINS=print it prints the sums instead.
func checkPins(t *testing.T, got map[string][]byte) {
	t.Helper()
	data, err := os.ReadFile("../../testdata/pins.json")
	if err != nil {
		t.Fatal(err)
	}
	var pins map[string]string
	if err := json.Unmarshal(data, &pins); err != nil {
		t.Fatal(err)
	}
	prefixes := map[string]bool{}
	for _, k := range slices.Sorted(maps.Keys(got)) {
		prefixes[k[:strings.IndexByte(k, '/')+1]] = true
		sum := fmt.Sprintf("%x", sha256.Sum256(got[k]))
		if os.Getenv("ULE_PINS") == "print" {
			fmt.Printf("  %q: %q\n", k, sum)
		} else if sum != pins[k] {
			t.Errorf("%s: sha256 %s, pinned %q", k, sum, pins[k])
		}
	}
	for k := range pins {
		if prefixes[k[:strings.IndexByte(k, '/')+1]] && got[k] == nil {
			t.Errorf("%s: pinned, but no output", k)
		}
	}
}
