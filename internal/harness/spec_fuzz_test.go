package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ule/internal/graph"
)

// Caps under which FuzzLoadSpec lets Validate build a spec's graphs, the
// way uled's graphWithin checks a graph's size before building it, so
// that the fuzzer never builds a large graph.
const (
	fuzzMaxNodes  = 64
	fuzzMaxEdges  = 256
	fuzzMaxTrials = 4096
)

// FuzzLoadSpec feeds bytes to LoadSpec, the one sweep-spec reader of every
// front end, through a file as the front ends do. It may reject them but
// must not panic, and a spec it accepts must hold together:
//   - Compile does not panic, and a compiled plan has exactly the trials
//     NumTrials counts; a spec above the sweep cap does not compile;
//   - Validate, run when every graph and the trial count are small,
//     does not panic and agrees with NumTrials too;
//   - marshalling the spec and loading it again gives an equal spec.
func FuzzLoadSpec(f *testing.F) {
	smoke, err := json.Marshal(Smoke())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smoke)
	f.Add([]byte(`{"algos":["leastel"],"graphs":["ring:32"],"trials":5}`))
	path := filepath.Join(f.TempDir(), "spec.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		spec, err := LoadSpec(path)
		if err != nil {
			return
		}
		want := spec.NumTrials()
		plan, err := spec.Compile()
		switch {
		case err == nil && plan.Total() != want:
			t.Fatalf("Compile expands to %d trials, NumTrials counts %d", plan.Total(), want)
		case err == nil && want > maxSweepTrials:
			t.Fatalf("a spec of %d trials, above the cap, compiled", want)
		}
		if err == nil && small(spec, want) {
			if n, err := spec.Validate(); err == nil && n != want {
				t.Fatalf("Validate counts %d trials, NumTrials %d", n, want)
			}
		}

		out, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		again, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("the marshalled spec %s does not load: %v", out, err)
		}
		if !reflect.DeepEqual(omitted(again), omitted(spec)) {
			t.Fatalf("spec changed through JSON:\n%+v\n%+v", spec, again)
		}
	})
}

// small reports whether spec's trial count and every graph are within the
// caps under which FuzzLoadSpec runs Validate.
func small(spec Spec, trials int) bool {
	if trials > fuzzMaxTrials {
		return false
	}
	for _, g := range spec.Graphs {
		nodes, edges, err := graph.SpecSize(g)
		if err != nil || nodes > fuzzMaxNodes || edges > fuzzMaxEdges {
			return false
		}
	}
	return true
}

// omitted returns spec with its empty omitempty axes as nil, the way
// marshalling leaves them: an empty list and an absent one select the
// same default.
func omitted(spec Spec) Spec {
	for _, axis := range []*[]string{&spec.Modes, &spec.Wakes, &spec.Delays, &spec.Faults} {
		if len(*axis) == 0 {
			*axis = nil
		}
	}
	return spec
}
