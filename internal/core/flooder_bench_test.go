package core

import (
	"runtime"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// BenchmarkFloodRound prices the flood machine's data path per delivered
// message: leastel through a warm Prepared on the dense cell of
// TestProtocolBudgets (torus:32x32, CONGEST, everyone awake) and on a
// smaller copy of elect-sparse's cell (ring:4096, async+random:8, one node
// awake — one to four deliveries a tick, so a Round handles one record).
// ns/msg is wall time over sim.Result.Messages and includes the engine;
// allocs/msg includes the per-node set-up each run repeats. `make
// bench-flood` runs it.
func BenchmarkFloodRound(b *testing.B) {
	for _, c := range []struct {
		name, graph, model string
		oneAwake           bool
	}{
		{"torus32-congest", "torus:32x32", "congest", false},
		{"ring4096-async", "ring:4096", "async+random:8", true},
	} {
		b.Run(c.name, func(b *testing.B) {
			g, err := graph.FromSpec(c.graph, 1)
			if err != nil {
				b.Fatal(err)
			}
			m, err := sim.ParseModel(c.model)
			if err != nil {
				b.Fatal(err)
			}
			prep, err := Prepare(g, "leastel")
			if err != nil {
				b.Fatal(err)
			}
			ro := RunOpts{Seed: 1, Model: m, Shards: 1, MaxRounds: 1 << 20}
			if c.oneAwake {
				ro.Wake = oneAwake(g.N())
			}
			var res sim.Result
			run := func() {
				if err := prep.RunInto(ro, &res); err != nil {
					b.Fatal(err)
				}
				if !res.UniqueLeader() {
					b.Fatal("election failed")
				}
			}
			run() // warm the Runner and the boxes
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			var msgs int64
			for i := 0; i < b.N; i++ {
				run()
				msgs += res.Messages
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
		})
	}
}
