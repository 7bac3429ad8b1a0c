package graph

// Topology benchmarks behind `make bench-graph` (docs/PERFORMANCE.md
// "Topology fast path"): CSR construction across densities, scratch BFS,
// and the exact/estimated diameter.

import (
	"math/rand"
	"testing"
)

func BenchmarkGraphBuildComplete2048(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := Complete(2048); g.M() != 2048*2047/2 {
			b.Fatal("bad m")
		}
	}
}

func BenchmarkGraphBuildRing1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if g := Ring(1 << 20); g.N() != 1<<20 {
			b.Fatal("bad n")
		}
	}
}

func BenchmarkGraphBuildRandom4096(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomConnected(4096, 65536, rand.New(rand.NewSource(1))); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBuildCliqueCycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewCliqueCycle(2048, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphShufflePorts(b *testing.B) {
	g := Complete(1024)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShufflePorts(rng)
	}
}

func BenchmarkGraphBFSTorus64(b *testing.B) {
	g := Torus(64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := g.BFS(0); d[len(d)-1] < 0 {
			b.Fatal("unreachable")
		}
	}
}

func BenchmarkGraphDiameterExactTorus64(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Rebuild per iteration: DiameterExact memoizes, and the all-pairs
		// fan-out is what is being measured.
		if d := Torus(64, 64).DiameterExact(); d != 64 {
			b.Fatalf("diameter %d", d)
		}
	}
}

func BenchmarkGraphDiameterEstimateRing1M(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if d := Ring(1 << 20).DiameterEstimate(); d != 1<<19 {
			b.Fatalf("estimate %d", d)
		}
	}
}
