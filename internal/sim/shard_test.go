package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ule/internal/graph"
)

// fullResultKey extends resultKey with every fault and instrument field.
func fullResultKey(r *Result) string {
	return resultKey(r) + fmt.Sprintf(" crashes=%d recov=%d dropped=%d crashed=%v fc=%d mbc=%d",
		r.Crashes, r.Recoveries, r.Dropped, r.Crashed, r.FirstCrossing, r.MessagesBeforeCrossing)
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
								WatchEdges: [][2]int{{0, 1}, {5, 6}},
								Shards:     shards,
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
			cfg := Config{Seed: 7, MaxRounds: 200, Shards: shards}
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

// TestShardedConfigValidation pins the Shards knob's edge cases:
// auto-sizing (negative) and clamping (shards > n) both run and match the
// single-shard result.
func TestShardedConfigValidation(t *testing.T) {
	g := graph.Ring(8)
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
}

// TestShardedEveryCountOnSmallPaths asks for every shard count up to 12 on
// every path of up to 40 nodes, in a synchronous and in the asynchronous
// model: each must return the single-shard Result. Counts whose ranges of
// ⌈n/S⌉ nodes cover the path before the S-th begins used to leave inverted
// trailing ranges, and the run died on a nil event bucket.
func TestShardedEveryCountOnSmallPaths(t *testing.T) {
	for _, mode := range []Mode{CONGEST, ASYNC} {
		for n := 2; n <= 40; n++ {
			cfg := Config{Graph: graph.Path(n), Seed: int64(n), Model: ModelSpec{Mode: mode}, MaxRounds: 200}
			want, err := Run(cfg, coinProto{})
			if err != nil {
				t.Fatal(err)
			}
			for cfg.Shards = 2; cfg.Shards <= 12; cfg.Shards++ {
				got, err := Run(cfg, coinProto{})
				if err != nil {
					t.Fatalf("%v path:%d shards=%d: %v", mode, n, cfg.Shards, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%v path:%d shards=%d diverges from one shard:\ngot  %+v\nwant %+v", mode, n, cfg.Shards, got, want)
				}
			}
		}
	}
}

// TestShardedModelViolationDeterministic: when several nodes violate the
// model in one tick, every shard count must surface the same (first in
// merge order) error.
func TestShardedModelViolationDeterministic(t *testing.T) {
	g := graph.Complete(12)
	ref := ""
	for _, shards := range []int{1, 2, 4, 8} {
		_, err := Run(Config{Graph: g, Seed: 3, Shards: shards}, portSenderProto{portSendCap + 1})
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

// shardProbe records, per node (by ID), the shard its Start and every
// Round report, while sending a few messages so that every node steps.
type shardProbe struct{ seen [][]int }

func (p shardProbe) New(NodeInfo) Process { return &shardProbeProc{seen: p.seen} }

type shardProbeProc struct {
	seen [][]int
	sent int
}

func (p *shardProbeProc) Start(c *Context) {
	p.seen[c.ID()-1] = append(p.seen[c.ID()-1], c.Shard())
}

func (p *shardProbeProc) Round(c *Context, inbox []Message) {
	p.seen[c.ID()-1] = append(p.seen[c.ID()-1], c.Shard())
	if p.sent < 3 {
		c.Broadcast(tokenMsg{c.ID()})
		p.sent++
		return
	}
	c.Halt()
}

// TestContextShard: a node's Start and every Round of a run report the
// shard whose range holds the node — node u of n in S resolved shards is
// in shard u / ⌈n/S⌉ — in both timing models and at counts that do not
// divide n.
func TestContextShard(t *testing.T) {
	for _, mode := range []Mode{CONGEST, ASYNC} {
		for _, shards := range []int{1, 2, 3, 4, 7} {
			n := 23
			ids := make([]int64, n)
			for u := range ids {
				ids[u] = int64(u + 1)
			}
			probe := shardProbe{seen: make([][]int, n)}
			cfg := Config{Graph: graph.Ring(n), IDs: ids, Model: ModelSpec{Mode: mode}, MaxRounds: 64, Shards: shards}
			if _, err := Run(cfg, probe); err != nil {
				t.Fatal(err)
			}
			k := EffectiveShards(shards, n, 1)
			size := (n + k - 1) / k
			for u, seen := range probe.seen {
				if len(seen) < 2 {
					t.Fatalf("%v shards=%d: node %d stepped %d times", mode, shards, u, len(seen))
				}
				for _, s := range seen {
					if want := u / size; s != want {
						t.Fatalf("%v shards=%d: node %d reported shard %d, want %d", mode, shards, u, s, want)
					}
				}
			}
		}
	}
}
