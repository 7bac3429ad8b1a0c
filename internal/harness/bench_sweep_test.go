package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"testing"
)

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

// scrambled returns the trial indices in the arrival order a parallel
// pool produces: contiguous shards interleaved out of order.
func scrambled(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = (i*613 + 401) % n
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

// ---- whole-consumer benchmarks: reorder window + emit + aggregation,
// exactly the work between a worker's result and the output stream ----

// consume drives the consumer: ring reorder, append-encoders into one
// emitter set, IntSample aggregation.
func consume(trials []TrialResult, order []int, emitters []Emitter) error {
	ring := newReorderRing(256, 0)
	var acc groupAcc
	for _, idx := range order {
		ring.put(trials[idx])
		for {
			tr, ok := ring.take()
			if !ok {
				break
			}
			for _, em := range emitters {
				if err := em.Trial(tr); err != nil {
					return err
				}
			}
			acc.add(&tr)
		}
	}
	if acc.trials != len(trials) {
		return fmt.Errorf("aggregated %d trials, want %d", acc.trials, len(trials))
	}
	return nil
}

const consumerBenchTrials = 4096

// steadyConsumer holds the consumer state that persists across batches
// in a long sweep — warm ring, warm aggregation maps, warm emitter
// buffers — so the benchmarks measure steady-state throughput at
// 10^6-trial scale rather than cold-start map growth on every pass.
type steadyConsumer struct {
	ring     *reorderRing
	acc      groupAcc
	emitters []Emitter
	consumed int
}

func newSteadyConsumer(total int, emitters []Emitter) *steadyConsumer {
	for _, em := range emitters {
		if err := em.Begin(Spec{Seed: 42}, total); err != nil {
			panic(err)
		}
	}
	return &steadyConsumer{ring: newReorderRing(256, 0), emitters: emitters}
}

// feed pushes one batch through reorder + emit + aggregation; trial
// indices restart at 0 each batch, so the ring base is rewound (a free
// operation — the window state machine is identical either way).
func (c *steadyConsumer) feed(trials []TrialResult, order []int) error {
	c.ring.base = 0
	for _, idx := range order {
		c.ring.put(trials[idx])
		for {
			tr, ok := c.ring.take()
			if !ok {
				break
			}
			for _, em := range c.emitters {
				if err := em.Trial(tr); err != nil {
					return err
				}
			}
			c.acc.add(&tr)
			c.consumed++
		}
	}
	return nil
}

func benchSteadyConsumer(b *testing.B, emitters []Emitter) {
	trials := syntheticTrials(consumerBenchTrials)
	order := scrambled(len(trials))
	c := newSteadyConsumer(consumerBenchTrials, emitters)
	if err := c.feed(trials, order); err != nil { // warm everything
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; b.N > i; i++ {
		if err := c.feed(trials, order); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c.consumed != (b.N+1)*consumerBenchTrials {
		b.Fatalf("consumed %d trials, want %d", c.consumed, (b.N+1)*consumerBenchTrials)
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
// the consumer: after warm-up, pushing a trial through the ring, both
// text encoders, the binary encoder, and the streaming aggregator must
// not allocate at all — the budget flags any reintroduced per-trial
// reflection, string building, or map churn. (The IntSample maps are warm
// because the synthetic stream revisits the same values.)
func TestAllocBudgetSweepConsumer(t *testing.T) {
	trials := syntheticTrials(2048)
	order := scrambled(len(trials))
	emitters := []Emitter{
		NewJSONEmitter(io.Discard),
		NewCSVEmitter(io.Discard),
		NewBinaryEmitter(io.Discard, BinaryOptions{}),
	}
	for _, em := range emitters {
		if err := em.Begin(Spec{Seed: 42}, len(trials)); err != nil {
			t.Fatal(err)
		}
	}
	run := func() {
		if err := consume(trials, order, emitters); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: ring sized, buffers grown, IntSample maps populated
	allocs := testing.AllocsPerRun(5, run)
	perTrial := allocs / float64(len(trials))
	if perTrial > 0.05 {
		t.Errorf("consumer allocates %.3f allocs/trial steady-state (%.0f per pass), want ~0", perTrial, allocs)
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
