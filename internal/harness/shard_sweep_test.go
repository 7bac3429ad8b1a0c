package harness

import (
	"bytes"
	"strings"
	"testing"
)

func runToCSV(t *testing.T, spec Spec, workers int) string {
	t.Helper()
	var buf bytes.Buffer
	rep, err := Run(spec, RunConfig{Workers: workers, Emitters: []Emitter{NewCSVEmitter(&buf)}})
	if err != nil {
		t.Fatalf("Run(workers=%d): %v", workers, err)
	}
	if rep.Errors != 0 {
		t.Fatalf("sweep reported %d trial errors", rep.Errors)
	}
	return buf.String()
}

// TestSweepByteIdenticalAcrossShardWorkerMatrix is the ISSUE's harness
// acceptance criterion: the emitted JSON of a fault-injected sweep is
// byte-identical at every (shards, workers) combination in {1,2,4,8}².
// The spec echo records the Shards knob, so the comparison trims the
// header down to the trial stream + report — the experiment data proper.
func TestSweepByteIdenticalAcrossShardWorkerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("16-run sweep matrix")
	}
	spec := Spec{
		Name:      "shard-worker-matrix",
		Algos:     []string{"leastel", "flood"},
		Graphs:    []string{"ring:24", "random:32:96"},
		Modes:     []string{"congest", "async"},
		Faults:    []string{"none", "crash:0.2", "crashrec:0.2:16"},
		Trials:    2,
		Seed:      13,
		MaxRounds: 1 << 12,
	}
	trim := func(b []byte) string {
		s := string(b)
		if i := strings.Index(s, "\n\"trials\":["); i >= 0 {
			return s[i:]
		}
		return s
	}
	var ref string
	for _, shards := range []int{1, 2, 4, 8} {
		s := spec
		s.Shards = shards
		for _, workers := range []int{1, 2, 4, 8} {
			out, rep := runToJSON(t, s, workers)
			if rep.Errors != 0 {
				t.Fatalf("shards=%d workers=%d: %d trial errors", shards, workers, rep.Errors)
			}
			got := trim(out)
			if ref == "" {
				ref = got
			} else if got != ref {
				t.Fatalf("sweep output diverges at shards=%d workers=%d (%d vs %d bytes)",
					shards, workers, len(ref), len(got))
			}
		}
	}
}

// TestSweepCSVIdenticalAcrossShards covers the second emitter: the CSV
// trial stream has no spec echo at all, so it must match exactly.
func TestSweepCSVIdenticalAcrossShards(t *testing.T) {
	spec := Spec{
		Name:      "shard-csv",
		Algos:     []string{"leastel"},
		Graphs:    []string{"random:32:96"},
		Faults:    []string{"churn:0.2:8"},
		Trials:    3,
		Seed:      5,
		MaxRounds: 1 << 12,
	}
	var ref string
	for _, shards := range []int{1, 2, 4, 8} {
		s := spec
		s.Shards = shards
		out := runToCSV(t, s, 4)
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Fatalf("CSV output diverges at shards=%d", shards)
		}
	}
}

// TestSweepUnsetShardsFollowWorkers: a sweep that fills the cores with
// whole trials keeps each trial on one shard, a single-worker sweep
// leaves the choice to the engine, and an explicit spec value is passed
// through untouched. On a graph large enough for the engine to shard by
// itself (8192 nodes), the two executions emit the same bytes.
func TestSweepUnsetShardsFollowWorkers(t *testing.T) {
	for _, c := range []struct {
		spec, workers int
		ranged        bool
		want          int
	}{
		{0, 1, false, 0}, // engine decides
		{0, 2, false, 1},
		{0, 8, false, 1},
		{0, 1, true, 1}, // a fleet worker's range
		{1, 1, false, 1},
		{4, 2, false, 4},
		{-1, 2, true, -1},
	} {
		if got := trialShards(c.spec, c.workers, c.ranged); got != c.want {
			t.Errorf("trialShards(spec=%d, workers=%d, ranged=%v) = %d, want %d",
				c.spec, c.workers, c.ranged, got, c.want)
		}
	}

	spec := Spec{
		Name:      "auto-shards",
		Algos:     []string{"leastel", "flood"},
		Graphs:    []string{"torus:64x128"},
		Modes:     []string{"congest", "async"},
		Trials:    2,
		Seed:      3,
		MaxRounds: 48,
	}
	one, rep := runToJSON(t, spec, 1)
	if rep.Errors != 0 {
		t.Fatalf("workers=1: %d trial errors", rep.Errors)
	}
	two, _ := runToJSON(t, spec, 2)
	if !bytes.Equal(one, two) {
		t.Errorf("workers=2 output differs from workers=1 (%d vs %d bytes)", len(two), len(one))
	}
	if bytes.Contains(one, []byte(`"shards"`)) {
		t.Error("the spec echo must not show a resolved shard count the spec did not set")
	}
}
