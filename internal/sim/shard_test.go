package sim

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"ule/internal/graph"
)

// fullResultKey extends resultKey with every fault and instrument field,
// rendering maps in sorted key order so equal Results compare equal.
func fullResultKey(r *Result) string {
	s := resultKey(r)
	s += fmt.Sprintf(" crashes=%d recov=%d dropped=%d crashed=%v mbc=%d",
		r.Crashes, r.Recoveries, r.Dropped, r.Crashed, r.MessagesBeforeCrossing)
	for _, m := range []map[[2]int]int{r.FirstCrossing} {
		keys := make([][2]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
		})
		for _, k := range keys {
			s += fmt.Sprintf(" fc%v=%d", k, m[k])
		}
	}
	keys := make([][2]int, 0, len(r.PerEdge))
	for k := range r.PerEdge {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return keys[i][0] < keys[j][0] || (keys[i][0] == keys[j][0] && keys[i][1] < keys[j][1])
	})
	for _, k := range keys {
		s += fmt.Sprintf(" pe%v=%d", k, r.PerEdge[k])
	}
	return s
}

// TestShardedEngineMatchesSingleShard is the tentpole's contract at the
// engine layer: for every combination of protocol, wake schedule, timing
// model and fault schedule, the run transcript is byte-identical at
// every shard count — including counts that do not divide n and counts
// above n.
func TestShardedEngineMatchesSingleShard(t *testing.T) {
	g := graph.Torus(4, 4)
	n := g.N()
	adversarial := make([]int, n)
	for i := range adversarial {
		adversarial[i] = WakeOnMessage
	}
	adversarial[3] = 1
	staggered := make([]int, n)
	for i := range staggered {
		staggered[i] = 1 + i%5
	}
	wakes := map[string][]int{"sync": nil, "adversarial": adversarial, "staggered": staggered}
	protos := map[string]Protocol{
		"floodOnce": floodOnceProto{},
		"coin":      coinProto{},
		"sleeper":   sleeperProto{delta: 4},
	}
	models := []struct {
		mode  Mode
		delay string
	}{
		{CONGEST, ""},
		{LOCAL, ""},
		{ASYNC, "random:4"},
		{ASYNC, "fifo:3"},
	}
	faults := []string{"none", "crash:0.3:8", "crashrec:0.3:6", "crashrec:0.3:6:keep", "churn:0.3:7", "drop:0.2"}

	for wname, wake := range wakes {
		for pname, proto := range protos {
			for _, m := range models {
				for _, fspec := range faults {
					name := fmt.Sprintf("%s/%s/%s+%s+%s", wname, pname, m.mode, m.delay, fspec)
					t.Run(name, func(t *testing.T) {
						var delay DelaySchedule
						if m.delay != "" {
							var err error
							if delay, err = ParseDelay(m.delay); err != nil {
								t.Fatal(err)
							}
						}
						fs, err := ParseFaults(fspec)
						if err != nil {
							t.Fatal(err)
						}
						run := func(shards int) string {
							res, err := Run(Config{
								Graph: g, IDs: SequentialIDs(n, 1), Seed: 11, Wake: wake,
								Model: ModelSpec{Mode: m.mode, Delay: delay, Faults: fs}, MaxRounds: 200,
								WatchEdges: [][2]int{{0, 1}, {5, 6}}, CountPerEdge: true,
								Shards: shards,
							}, proto)
							if err != nil {
								t.Fatal(err)
							}
							return fullResultKey(res)
						}
						ref := run(1)
						for _, shards := range []int{2, 3, 4, 8, n, n + 7} {
							if got := run(shards); got != ref {
								t.Errorf("shards=%d diverges:\n 1: %s\n%2d: %s", shards, ref, shards, got)
							}
						}
					})
				}
			}
		}
	}
}

// TestShardedRunnerReuse alternates shard counts and schedules on one
// Runner: the shard state must rebuild and reset cleanly between runs.
func TestShardedRunnerReuse(t *testing.T) {
	g := graph.Ring(24)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ParseFaults("crashrec:0.3:6")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, shards := range []int{1, 4, 2, 8, 1, 3} {
		for _, faulty := range []bool{false, true} {
			cfg := Config{Seed: 7, MaxRounds: 200, Shards: shards, CountPerEdge: true}
			if faulty {
				cfg.Model.Faults = fs
			}
			res, err := r.Run(cfg, coinProto{})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("faulty=%v", faulty)
			got := fullResultKey(res)
			if prev, ok := want[key]; !ok {
				want[key] = got
			} else if prev != got {
				t.Fatalf("reused Runner diverges at shards=%d faulty=%v:\nwant %s\ngot  %s",
					shards, faulty, prev, got)
			}
		}
	}
}

// TestShardedConfigValidation pins the Shards knob's edge cases: the
// dense loop rejects explicit multi-sharding, and auto-sizing (negative)
// plus clamping (shards > n) both run and match the single-shard result.
func TestShardedConfigValidation(t *testing.T) {
	g := graph.Ring(8)
	if _, err := Run(Config{Graph: g, DenseLoop: true, Shards: 4}, floodOnceProto{}); !errors.Is(err, ErrConfig) {
		t.Errorf("DenseLoop+Shards>1 accepted: %v", err)
	}
	ref, err := Run(Config{Graph: g, Seed: 5}, floodOnceProto{})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{-1, 8, 100} {
		res, err := Run(Config{Graph: g, Seed: 5, Shards: shards}, floodOnceProto{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if fullResultKey(res) != fullResultKey(ref) {
			t.Errorf("shards=%d diverges from default", shards)
		}
	}
	// DenseLoop with auto-sizing silently resolves to one shard.
	if _, err := Run(Config{Graph: g, Seed: 5, DenseLoop: true, Shards: -1}, floodOnceProto{}); err != nil {
		t.Errorf("DenseLoop+auto shards rejected: %v", err)
	}
}

// TestShardedModelViolationDeterministic: when several nodes violate the
// model in one tick, every shard count must surface the same (first in
// merge order) error.
func TestShardedModelViolationDeterministic(t *testing.T) {
	g := graph.Complete(12)
	ref := ""
	for _, shards := range []int{1, 2, 4, 8} {
		_, err := Run(Config{Graph: g, Seed: 3, Shards: shards, PortSendCap: 1}, doubleSenderProto{})
		if err == nil {
			t.Fatalf("shards=%d: model violation not reported", shards)
		}
		if !errors.Is(err, ErrDoubleSend) {
			t.Fatalf("shards=%d: wrong error class: %v", shards, err)
		}
		if ref == "" {
			ref = err.Error()
		} else if err.Error() != ref {
			t.Errorf("shards=%d picks a different violator:\nwant %s\ngot  %s", shards, ref, err.Error())
		}
	}
}
