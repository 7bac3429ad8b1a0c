package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"
)

// poolDrops reports whether sync.Pool loses what it was just given, as it
// does under the race detector (Put discards a quarter of the items at
// random): the flood family's wire boxes then come from the heap again and
// allocation counts mean nothing.
func poolDrops() bool {
	const k = 64
	var p sync.Pool
	for i := 0; i < k; i++ {
		p.Put(new(int))
	}
	kept := 0
	for i := 0; i < k; i++ {
		if p.Get() != nil {
			kept++
		}
	}
	return kept < k-1 // one item can strand on another P's private slot
}

// syntheticTrials fabricates a deterministic emit-bound trial stream —
// mixed cells, a sprinkling of fault counts — shaped like a real sweep
// but with zero simulation cost, so benchmarks measure the result
// pipeline alone.
func syntheticTrials(n int) []TrialResult {
	algos := []string{"leastel", "leastel-const", "kingdom", "lasvegas"}
	graphs := []string{"ring:256", "random:256:1024"}
	trials := make([]TrialResult, n)
	for i := range trials {
		tr := TrialResult{
			Trial: Trial{
				Index: i,
				Algo:  algos[i%len(algos)],
				Graph: graphs[(i/len(algos))%len(graphs)],
				Mode:  "congest", Wake: "sync",
				Rep:  i % 50,
				Seed: TrialSeed(42, i%50),
			},
			N: 256, M: 1024,
			Outcome: Outcome{
				D:      16,
				Rounds: 40 + i%17, LastActive: 39 + i%17,
				Messages: int64(9000 + i%4096), Bits: int64(288000 + 32*(i%4096)),
				Leaders: 1, Unique: true, Halted: true,
			},
		}
		if i%16 == 5 {
			tr.Fault = "crash:0.2"
			tr.Crashes = 3 + i%5
			tr.Dropped = int64(i % 7)
			tr.LiveUnique = true
		}
		trials[i] = tr
	}
	return trials
}

// completionOrder returns the trial indices in an arrival order the
// sweep's workers can produce: trials are claimed in index order, so a
// record is out of place by at most the worker count — here eight workers
// that each time finish in reverse.
func completionOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = min(i|7, n-1) - i&7
	}
	return order
}

// ---- per-trial encoder benchmarks ----

func BenchmarkEmitTrialJSON(b *testing.B) {
	trials := syntheticTrials(64)
	var buf []byte
	b.ReportAllocs()
	for i := 0; b.N > i; i++ {
		buf = appendTrialJSON(buf[:0], &trials[i%len(trials)])
	}
	if len(buf) == 0 {
		b.Fatal("no output")
	}
}

func BenchmarkEmitTrialCSV(b *testing.B) {
	trials := syntheticTrials(64)
	var buf []byte
	b.ReportAllocs()
	for i := 0; b.N > i; i++ {
		buf = appendTrialCSV(buf[:0], &trials[i%len(trials)])
	}
	if len(buf) == 0 {
		b.Fatal("no output")
	}
}

// BenchmarkSpecCompile compiles and validates cmd/ule-bench's sweep spec
// (54 cells, three small graphs) at the benchmark's 16 200 trials and at
// 10^6: the cost is the cells' and the graphs', so the two agree.
func BenchmarkSpecCompile(b *testing.B) {
	for _, trials := range []int{300, 18519} {
		spec := benchLikeSpec(trials)
		b.Run(fmt.Sprintf("trials=%d", 54*trials), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := spec.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- whole-tail benchmarks: reorder window + emit + aggregation, exactly
// the work between a worker's result and the output stream. They drive
// the production tail (sweepTail), not a model of it ----

const consumerBenchTrials = 4096

// syntheticTail starts the production tail for a synthetic stream. The
// tail persists across batches the way it does through a long sweep —
// warm ring, warm aggregation maps, warm emitter buffers — so what is
// measured is steady-state throughput at 10^6-trial scale rather than
// cold-start map growth on every pass.
func syntheticTail(tb testing.TB, total int, emitters []Emitter) *sweepTail {
	tb.Helper()
	tail, err := (&Plan{spec: Spec{Seed: 42}, total: total}).newTail(emitters, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return tail
}

// feedTail pushes one batch through the tail; trial indices restart at 0
// each batch, so the ring base is rewound (a free operation — the window
// state machine is identical either way).
func feedTail(tb testing.TB, tail *sweepTail, trials []TrialResult, order []int) {
	tail.plan.ring.base = 0
	for _, idx := range order {
		if err := tail.put(trials[idx]); err != nil {
			tb.Fatal(err)
		}
	}
}

// tailTrials is the number of records the tail has aggregated.
func tailTrials(tail *sweepTail) (n int) {
	for _, acc := range tail.agg.groups {
		n += acc.trials
	}
	return n
}

func benchSteadyConsumer(b *testing.B, emitters []Emitter) {
	trials := syntheticTrials(consumerBenchTrials)
	order := completionOrder(len(trials))
	tail := syntheticTail(b, consumerBenchTrials, emitters)
	feedTail(b, tail, trials, order) // warm everything
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; b.N > i; i++ {
		feedTail(b, tail, trials, order)
	}
	b.StopTimer()
	if got := tailTrials(tail); got != (b.N+1)*consumerBenchTrials {
		b.Fatalf("consumed %d trials, want %d", got, (b.N+1)*consumerBenchTrials)
	}
	b.ReportMetric(float64(consumerBenchTrials)*float64(b.N)/b.Elapsed().Seconds(), "trials/s")
}

func BenchmarkSweepConsumer(b *testing.B) {
	benchSteadyConsumer(b, []Emitter{NewJSONEmitter(io.Discard), NewCSVEmitter(io.Discard)})
}

func BenchmarkSweepConsumerJSON(b *testing.B) {
	benchSteadyConsumer(b, []Emitter{NewJSONEmitter(io.Discard)})
}

func BenchmarkSweepConsumerBinary(b *testing.B) {
	benchSteadyConsumer(b, []Emitter{NewBinaryEmitter(io.Discard, BinaryOptions{})})
}

// TestAllocBudgetSweepConsumer pins the steady-state allocation budget of
// the sweep tail: after warm-up, pushing a trial through the ring, both
// text encoders, the binary encoder, and the streaming aggregator must
// not allocate at all — the budget flags any reintroduced per-trial
// reflection, string building, or map churn. (The IntSample maps are warm
// because the synthetic stream revisits the same values.)
func TestAllocBudgetSweepConsumer(t *testing.T) {
	trials := syntheticTrials(2048)
	order := completionOrder(len(trials))
	tail := syntheticTail(t, len(trials), []Emitter{
		NewJSONEmitter(io.Discard),
		NewCSVEmitter(io.Discard),
		NewBinaryEmitter(io.Discard, BinaryOptions{}),
	})
	run := func() { feedTail(t, tail, trials, order) }
	run() // warm: buffers grown, cell accumulators made, IntSample maps populated
	allocs := testing.AllocsPerRun(5, run)
	perTrial := allocs / float64(len(trials))
	if perTrial > 0.05 {
		t.Errorf("tail allocates %.3f allocs/trial steady-state (%.0f per pass), want ~0", perTrial, allocs)
	}
	if got, want := tailTrials(tail), 7*len(trials); got != want { // warm-up, AllocsPerRun's own, five measured
		t.Errorf("aggregated %d trials, want %d", got, want)
	}
	if len(tail.plan.ring.buf) != ringSlots {
		t.Errorf("the reorder ring grew to %d slots on an in-window stream", len(tail.plan.ring.buf))
	}
}

// TestAllocBudgetSweepTrial pins what a whole trial costs the heap on the
// sweep cmd/ule-bench runs (sweep-small: 54 cells of 16-24 node graphs,
// round-capped): on a Plan's second Run, one worker, at most 1 KB and 12
// allocations per trial with everything counted — the run's nine Prepares
// and their cold first trials (some 180 KB each, which is why a cell gets
// 100 trials here: at 20 they are three quarters of the reading), the
// tail, the per-trial protocol value. A warm Runner renews its processes
// (sim.Recycler) and the Prepared owns the ID buffer, so a trial rebuilds
// neither; before that a trial of this sweep cost 17 KB and 120
// allocations.
func TestAllocBudgetSweepTrial(t *testing.T) {
	if poolDrops() {
		t.Skip("sync.Pool is dropping items (race detector?): wire boxes would count")
	}
	plan, err := benchLikeSpec(100).Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		rc := RunConfig{Workers: 1, Emitters: []Emitter{NewBinaryEmitter(io.Discard, BinaryOptions{})}}
		if _, err := plan.Run(rc); err != nil {
			t.Fatal(err)
		}
	}
	run() // builds the graphs and warms the tail
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	trials := float64(plan.Total())
	allocs := float64(after.Mallocs-before.Mallocs) / trials
	size := float64(after.TotalAlloc-before.TotalAlloc) / trials
	t.Logf("%d trials: %.1f allocations and %.0f B per trial", plan.Total(), allocs, size)
	if allocs > 12 || size > 1024 {
		t.Errorf("a sweep trial costs %.1f allocations and %.0f B, budget 12 and 1024", allocs, size)
	}
}

// TestConsumerMemoryFlatInTrialCount is the O(1)-aggregation regression
// guard at the Run level: the aggregator state after a sweep must scale
// with distinct observed values, not with trial count — the property that
// keeps a 10^6-trial sweep's resident memory flat, pinned directly.
func TestConsumerMemoryFlatInTrialCount(t *testing.T) {
	var acc groupAcc
	for i := 0; i < 1_000_000; i++ {
		tr := TrialResult{
			N: 8, M: 8,
			Outcome: Outcome{
				Messages: int64(i % 200), Bits: int64(i % 300),
				Leaders: 1, Unique: true, Halted: true,
			},
		}
		tr.LastActive = i % 100
		acc.add(&tr)
	}
	if acc.trials != 1_000_000 {
		t.Fatalf("aggregated %d trials", acc.trials)
	}
	if got := acc.msgs.Count(); got != 1_000_000 {
		t.Fatalf("msgs sample holds %d observations", got)
	}
	var sink bytes.Buffer
	enc := json.NewEncoder(&sink)
	if err := enc.Encode(acc.msgs.Summary()); err != nil {
		t.Fatal(err)
	}
}
