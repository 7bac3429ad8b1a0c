package cmdutil

import (
	"os"
	"path/filepath"
	"testing"

	"ule/internal/harness"
	"ule/internal/sim"
)

func TestResolveModel(t *testing.T) {
	cases := []struct {
		name   string
		model  string
		mode   string
		delay  string
		faults string
		want   sim.Mode
		faulty bool
		err    bool
	}{
		{name: "model wins", model: "async+random:4", mode: "congest", want: sim.ASYNC},
		{name: "legacy congest", mode: "congest", want: sim.CONGEST},
		{name: "legacy async with delay", mode: "async", delay: "random:4", want: sim.ASYNC},
		{name: "legacy local", mode: "local", want: sim.LOCAL},
		{name: "faults appended", mode: "congest", faults: "crash:0.1", want: sim.CONGEST, faulty: true},
		{name: "bad mode", mode: "warp", err: true},
		{name: "bad model", model: "warp", err: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ResolveModel(tc.model, tc.mode, tc.delay, tc.faults)
			if tc.err {
				if err == nil {
					t.Fatal("want error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got.Mode != tc.want {
				t.Fatalf("mode = %v, want %v", got.Mode, tc.want)
			}
			if (got.Faults != nil) != tc.faulty {
				t.Fatalf("faults = %v, want faulty=%v", got.Faults, tc.faulty)
			}
		})
	}
}

func TestLoadSpec(t *testing.T) {
	if _, err := LoadSpec("builtin:smoke"); err != nil {
		t.Fatalf("builtin:smoke: %v", err)
	}

	path := filepath.Join(t.TempDir(), "spec.json")
	os.WriteFile(path, []byte(`{"name":"x","algos":["leastel"],"graphs":["ring:8"],"trials":3}`), 0o644)
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Name != "x" || spec.Trials != 3 {
		t.Fatalf("loaded %+v", spec)
	}

	os.WriteFile(path, []byte(`{"algos":`), 0o644)
	if _, err := LoadSpec(path); err == nil {
		t.Fatal("malformed spec accepted")
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSpecOverrides(t *testing.T) {
	spec := harness.Spec{Algos: []string{"leastel"}, Graphs: []string{"ring:8"}}
	SpecOverrides{Modes: "async", Delays: "unit,random:4", Faults: "crash:0.2", DiameterEstimate: true, Shards: 4}.Apply(&spec)
	if len(spec.Modes) != 1 || spec.Modes[0] != "async" {
		t.Fatalf("modes = %v", spec.Modes)
	}
	if len(spec.Delays) != 2 || spec.Delays[1] != "random:4" {
		t.Fatalf("delays = %v", spec.Delays)
	}
	if len(spec.Faults) != 1 || !spec.DiameterEstimate || spec.Shards != 4 {
		t.Fatalf("overrides not applied: %+v", spec)
	}

	// Zero overrides leave the spec untouched.
	before := spec
	SpecOverrides{}.Apply(&spec)
	if spec.Shards != before.Shards || len(spec.Modes) != 1 {
		t.Fatalf("zero overrides mutated the spec: %+v", spec)
	}
}
