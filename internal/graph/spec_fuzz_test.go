package graph

import (
	"strings"
	"testing"
)

// fuzzSpecTooLarge bounds the graphs a fuzz iteration may build: a spec
// whose SpecSize has more nodes or edges than this is skipped (not
// rejected — large specs are valid, just too expensive to construct
// millions of times).
const fuzzSpecTooLarge = 4096

// FuzzFromSpec asserts the graph-spec grammar is total: any input either
// errors cleanly or builds a structurally consistent graph — never a
// panic, whatever sizes, separators or junk the spec carries — and that
// SpecSize, asked first, refuses exactly the specs FromSpec refuses and
// counts exactly the graph FromSpec builds.
func FuzzFromSpec(f *testing.F) {
	for _, seed := range []string{
		"path:8",
		"ring:64",
		"star:12",
		"complete:16",
		"hypercube:6",
		"grid:4x5",
		"torus:3x3",
		"bipartite:3x4",
		"random:24:72",
		"regular:16:4",
		"caterpillar:6:3",
		"lollipop:16:40",
		"dumbbell:16:40",
		"cliquecycle:32:8",
		"",
		"ring",
		"ring:2",
		"ring:-5",
		"ring:junk",
		"grid:4",
		"grid:4x",
		"grid:x5",
		"grid:-1x-1",
		"torus:2x9",
		"hypercube:40",
		"hypercube:-1",
		"random:5:99",
		"random:0:0",
		"regular:5:5",
		"nosuch:3",
		"path:3:4",
		"ring:064",
		"ring:+3",
		"complete:1",
		"complete:20000",
		"complete:2147483647",
		"complete:2147483648",
		"torus:2147483647x2147483647",
		"random:99999999999:5",
		"regular:4:1",
		"regular:7:3",
		"lollipop:4:4",
		"lollipop:3:9",
		"dumbbell:6:2000",
		"cliquecycle:5:3",
		"cliquecycle:5:5",
		"hypercube:30",
		"caterpillar:0:3",
		"star:1",
	} {
		f.Add(seed, int64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed int64) {
		nodes, edges, sizeErr := SpecSize(spec)
		if sizeErr == nil && (nodes > fuzzSpecTooLarge || edges > fuzzSpecTooLarge) {
			t.Skip("graph out of fuzz budget")
		}
		g, err := FromSpec(spec, seed)
		if err != nil {
			if g != nil {
				t.Fatalf("FromSpec(%q) returned both a graph and error %v", spec, err)
			}
			// The one refusal the arithmetic cannot foresee: regular:N:D
			// drawing no simple connected pairing (always, at D = 1 < N-1).
			if sizeErr == nil && !strings.Contains(err.Error(), "no simple connected pairing") {
				t.Fatalf("SpecSize(%q) = (%d, %d) but FromSpec refuses: %v", spec, nodes, edges, err)
			}
			return
		}
		if sizeErr != nil {
			t.Fatalf("FromSpec(%q) builds a graph but SpecSize refuses: %v", spec, sizeErr)
		}
		if g == nil {
			t.Fatalf("FromSpec(%q) returned nil graph and nil error", spec)
		}
		// Structural consistency of the CSR form: degree sum is twice the
		// edge count, and every port is a valid reciprocal link.
		degSum := 0
		for u := 0; u < g.N(); u++ {
			deg := g.Degree(u)
			degSum += deg
			for p := 0; p < deg; p++ {
				v := g.Neighbor(u, p)
				if v < 0 || v >= g.N() || v == u {
					t.Fatalf("FromSpec(%q): node %d port %d points at %d (n=%d)", spec, u, p, v, g.N())
				}
				if back := g.PortBack(u, p); g.Neighbor(v, back) != u {
					t.Fatalf("FromSpec(%q): reverse port of (%d,%d) broken", spec, u, p)
				}
			}
		}
		if int64(g.N()) != nodes || int64(g.M()) != edges {
			t.Fatalf("SpecSize(%q) = (%d, %d), the graph has n=%d m=%d", spec, nodes, edges, g.N(), g.M())
		}
		if degSum != 2*g.M() {
			t.Fatalf("FromSpec(%q): degree sum %d != 2m = %d", spec, degSum, 2*g.M())
		}
	})
}
