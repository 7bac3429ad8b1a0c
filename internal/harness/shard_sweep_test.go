package harness

import (
	"bytes"
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

// TestSweepByteIdenticalAcrossShardWorkerMatrix: the emitted JSON of a
// fault-injected sweep is byte-identical at 1, 2, 4 and 8 workers. A spec
// cannot choose a shard count — one worker leaves it to the engine, more
// run each trial on one shard (trialShards) — so the shard axis of the
// matrix lives below the harness: core's TestShardMatrixAllAlgorithms and
// sim's TestSharded* force every layout through RunOpts and Config.
func TestSweepByteIdenticalAcrossShardWorkerMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("four-run sweep matrix")
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
	var ref []byte
	for _, workers := range []int{1, 2, 4, 8} {
		out, rep := runToJSON(t, spec, workers)
		if rep.Errors != 0 {
			t.Fatalf("workers=%d: %d trial errors", workers, rep.Errors)
		}
		if ref == nil {
			ref = out
		} else if !bytes.Equal(out, ref) {
			t.Fatalf("sweep output diverges at workers=%d (%d vs %d bytes)", workers, len(ref), len(out))
		}
	}
}

// TestSweepCSVIdenticalAcrossShards covers the second emitter: the CSV
// trial stream of a churn sweep matches exactly at every worker count.
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
	for _, workers := range []int{1, 2, 4, 8} {
		out := runToCSV(t, spec, workers)
		if ref == "" {
			ref = out
		} else if out != ref {
			t.Fatalf("CSV output diverges at workers=%d", workers)
		}
	}
}

// TestSweepUnsetShardsFollowWorkers: a sweep that fills the cores with
// whole trials keeps each trial on one shard, and a single-worker sweep
// leaves the choice to the engine. On a graph large enough for the engine
// to shard by itself (8192 nodes), the two executions emit the same bytes.
func TestSweepUnsetShardsFollowWorkers(t *testing.T) {
	for _, c := range []struct {
		workers int
		ranged  bool
		want    int
	}{
		{1, false, 0}, // engine decides
		{2, false, 1},
		{8, false, 1},
		{1, true, 1}, // a fleet worker's range
		{2, true, 1},
	} {
		if got := trialShards(c.workers, c.ranged); got != c.want {
			t.Errorf("trialShards(workers=%d, ranged=%v) = %d, want %d", c.workers, c.ranged, got, c.want)
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
}
