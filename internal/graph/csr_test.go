package graph

// Differential and compatibility tests for the CSR topology core:
//
//   - every family builder is pinned against a reference rebuild through
//     NewFromEdges from its own Edges() output plus a direct port-order
//     replay, so the two-pass CSR fill and the old append-per-edge
//     adjacency lists agree on Degree/Neighbor/PortTo/Edges;
//   - seeded ShufflePorts / RandomConnected / FromSpec adjacency is pinned
//     to FNV hashes captured from the pre-CSR [][]int implementation —
//     seeded graphs, and therefore every seeded run and sweep, are
//     byte-identical across the representation change;
//   - the reverse-port table (PortBack) is checked as an invariant through
//     construction, cloning, shuffling and dumbbell rewiring;
//   - DiameterEstimate is bounded against DiameterExact on every family.

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// adjHash folds n, m and every (degree, neighbor...) row into an FNV-1a
// hash. The golden values below were produced by this exact function
// running against the pre-CSR adjacency-list implementation.
func adjHash(g *Graph) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v int) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	put(g.N())
	put(g.M())
	for u := 0; u < g.N(); u++ {
		put(g.Degree(u))
		for p := 0; p < g.Degree(u); p++ {
			put(g.Neighbor(u, p))
		}
	}
	return h.Sum64()
}

// testFamilies returns one instance of every family, including both
// lower-bound constructions, keyed by a label.
func testFamilies(t testing.TB) map[string]*Graph {
	t.Helper()
	lp, err := NewLollipop(24, 120)
	if err != nil {
		t.Fatal(err)
	}
	cc, err := NewCliqueCycle(96, 24)
	if err != nil {
		t.Fatal(err)
	}
	db, _, err := RandomDumbbell(24, 200, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	rc, err := RandomConnected(48, 140, rand.New(rand.NewSource(19)))
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RandomRegular(32, 4, rand.New(rand.NewSource(23)))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Graph{
		"path":        Path(17),
		"ring":        Ring(16),
		"star":        Star(12),
		"complete":    Complete(11),
		"grid":        Grid(4, 7),
		"torus":       Torus(4, 5),
		"hypercube":   Hypercube(4),
		"bipartite":   CompleteBipartite(5, 8),
		"caterpillar": Caterpillar(6, 3),
		"lollipop":    lp.Graph,
		"cliquecycle": cc.Graph,
		"dumbbell":    db.Graph,
		"random":      rc,
		"regular":     rr,
	}
}

// TestCSRMatchesEdgeListRebuild rebuilds every family from its own edge
// list through NewFromEdges and checks that ports, degrees and edges all
// agree — the CSR two-pass fill assigns ports in edge-stream order, which
// is exactly the append order NewFromEdges uses.
func TestCSRMatchesEdgeListRebuild(t *testing.T) {
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			edges := g.Edges()
			if len(edges) != g.M() {
				t.Fatalf("Edges len %d != m %d", len(edges), g.M())
			}
			ref, err := NewFromEdges(g.N(), edges)
			if err != nil {
				t.Fatal(err)
			}
			if ref.N() != g.N() || ref.M() != g.M() {
				t.Fatalf("rebuild shape (%d,%d) != (%d,%d)", ref.N(), ref.M(), g.N(), g.M())
			}
			for u := 0; u < g.N(); u++ {
				if ref.Degree(u) != g.Degree(u) {
					t.Fatalf("degree mismatch at %d: %d vs %d", u, ref.Degree(u), g.Degree(u))
				}
				for p := 0; p < g.Degree(u); p++ {
					v := g.Neighbor(u, p)
					// PortTo answers must agree in both directions even
					// though port numberings differ between g and ref.
					if ref.PortTo(u, v) < 0 {
						t.Fatalf("edge (%d,%d) of %s missing in rebuild", u, v, name)
					}
					if got := g.Neighbor(v, g.PortTo(v, u)); got != u {
						t.Fatalf("PortTo asymmetry at (%d,%d)", u, v)
					}
				}
			}
			refEdges := ref.Edges()
			for i := range edges {
				if edges[i] != refEdges[i] {
					t.Fatalf("edge list mismatch at %d: %v vs %v", i, edges[i], refEdges[i])
				}
			}
		})
	}
}

// TestPortBackInvariant checks the O(1) reverse-port table against the
// defining property Neighbor(Neighbor(u,p), PortBack(u,p)) == u on every
// family, after cloning, and after seeded port shuffles.
func TestPortBackInvariant(t *testing.T) {
	check := func(t *testing.T, g *Graph) {
		t.Helper()
		for u := 0; u < g.N(); u++ {
			for p := 0; p < g.Degree(u); p++ {
				v := g.Neighbor(u, p)
				q := g.PortBack(u, p)
				if q < 0 || q >= g.Degree(v) || g.Neighbor(v, q) != u {
					t.Fatalf("PortBack(%d,%d)=%d broken (neighbor %d)", u, p, q, v)
				}
				if want := g.PortTo(v, u); q != want {
					t.Fatalf("PortBack(%d,%d)=%d != PortTo(%d,%d)=%d", u, p, q, v, u, want)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(31))
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			check(t, g)
			c := g.Clone()
			c.ShufflePorts(rng)
			check(t, c)
			c.ShufflePorts(rng) // second shuffle re-translates the table
			check(t, c)
		})
	}
}

// Golden adjacency hashes captured from the pre-CSR implementation: the
// seeded builders and ShufflePorts must keep consuming the RNG in exactly
// the same order, so every seeded run and sweep stays byte-identical
// across the refactor.
func TestSeededGraphsByteIdentical(t *testing.T) {
	t.Run("RandomConnected", func(t *testing.T) {
		for _, c := range []struct {
			n, m int
			seed int64
			want uint64
		}{
			{40, 100, 7, 0xf2b64ec79ed4021a},
			{128, 640, 11, 0x4692bda9ae6555eb},
			{24, 24, 3, 0x07d017dacca7f4a9},
		} {
			g, err := RandomConnected(c.n, c.m, rand.New(rand.NewSource(c.seed)))
			if err != nil {
				t.Fatal(err)
			}
			if got := adjHash(g); got != c.want {
				t.Errorf("RandomConnected(%d,%d,seed=%d) hash %#x, want %#x", c.n, c.m, c.seed, got, c.want)
			}
		}
	})
	t.Run("ShufflePorts", func(t *testing.T) {
		for _, c := range []struct {
			name string
			g    *Graph
			seed int64
			want uint64
		}{
			{"ring32", Ring(32), 5, 0x63b5a286fa3b8de5},
			{"complete16", Complete(16), 9, 0x2727fb1a38d12cad},
			{"grid5x7", Grid(5, 7), 13, 0xb5f94f91f1a873da},
			{"hypercube5", Hypercube(5), 21, 0xc0eb9d7ead68e755},
		} {
			c.g.ShufflePorts(rand.New(rand.NewSource(c.seed)))
			if got := adjHash(c.g); got != c.want {
				t.Errorf("ShufflePorts(%s,seed=%d) hash %#x, want %#x", c.name, c.seed, got, c.want)
			}
		}
	})
	t.Run("FromSpec", func(t *testing.T) {
		for _, c := range []struct {
			spec string
			want uint64
		}{
			{"dumbbell:24:200", 0xb96d68237929e416},
			{"regular:32:4", 0x116eb479963f0965},
			{"random:64:128", 0x8f257fe115a99a99},
		} {
			g, err := FromSpec(c.spec, 42)
			if err != nil {
				t.Fatal(err)
			}
			if got := adjHash(g); got != c.want {
				t.Errorf("FromSpec(%s,seed=42) hash %#x, want %#x", c.spec, got, c.want)
			}
		}
	})
	t.Run("DoubleShuffle", func(t *testing.T) {
		// Two shuffles from one stream: the RNG must advance identically
		// between calls.
		g := Ring(64)
		rng := rand.New(rand.NewSource(77))
		g.ShufflePorts(rng)
		g.ShufflePorts(rng)
		if got, want := adjHash(g), uint64(0xd0034d0c85cfdba5); got != want {
			t.Errorf("double ShufflePorts hash %#x, want %#x", got, want)
		}
	})
}

// TestIDSetMatchesMap holds the flat duplicate filter to a map on one
// reused set: batches of up to n identifiers drawn from a narrow range
// (so that many repeat) with 0, negatives and the int64 extremes among
// them, each batch after a Reset to its own n, growing and shrinking.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s IDSet
	for _, n := range []int{0, 1, 3, 64, 5000, 17, 70000, 2, 1000} {
		s.Reset(n)
		seen := make(map[int64]bool)
		for len(seen) < n {
			var id int64
			switch rng.Intn(8) {
			case 0:
				id = []int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
			default:
				id = rng.Int63n(int64(2*n)) - int64(n/2)
			}
			if got := s.Add(id); got == seen[id] {
				t.Fatalf("n=%d: Add(%d) = %v with %d already seen: %v", n, id, got, id, seen[id])
			}
			seen[id] = true
		}
	}
}

// TestEdgeSetRepresentationsAgree drives the bitset and the table dedup
// paths, and a plain map, with identical insert streams full of
// duplicates; RandomConnected's RNG stream depends on the answers, so
// the representations must be indistinguishable. The table never grows,
// so it is sized for the whole stream. A dense set must choose the bitset
// and a sparse one the table.
func TestEdgeSetRepresentationsAgree(t *testing.T) {
	const inserts = 60000
	if s := newEdgeSet(1<<14, 1<<16); s.bits != nil || s.keys.slots == nil {
		t.Fatal("expected the table representation for a sparse set")
	}
	n := 300
	bitset := newEdgeSet(n, n*n/4)
	if bitset.bits == nil {
		t.Fatal("expected the bitset representation for a dense set")
	}
	table := &edgeSet{n: n}
	table.keys.Reset(inserts)
	seen := map[[2]int]bool{}
	rng := rand.New(rand.NewSource(131))
	fresh, made := 0, 0
	for i := 0; i < inserts; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		made++
		want := !seen[normEdge(u, v)]
		seen[normEdge(u, v)] = true
		if want {
			fresh++
		}
		if got := bitset.insert(u, v); got != want {
			t.Fatalf("bitset says %v on (%d,%d) at step %d, the map %v", got, u, v, i, want)
		}
		if got := table.insert(u, v); got != want {
			t.Fatalf("table says %v on (%d,%d) at step %d, the map %v", got, u, v, i, want)
		}
	}
	if made-fresh < made/4 {
		t.Fatalf("%d distinct edges of %d inserts: the stream holds too few duplicates to test", fresh, made)
	}
}

// TestDiameterEstimateBounds checks exact-vs-estimate on every family:
// the estimate is a real eccentricity, so exact/2 <= estimate <= exact.
func TestDiameterEstimateBounds(t *testing.T) {
	for name, g := range testFamilies(t) {
		t.Run(name, func(t *testing.T) {
			exact := g.DiameterExact()
			est := g.DiameterEstimate()
			if est > exact {
				t.Fatalf("estimate %d > exact %d", est, exact)
			}
			if 2*est < exact {
				t.Fatalf("estimate %d below half of exact %d", est, exact)
			}
		})
	}
	// Families where the double sweep lands exactly.
	for _, g := range []*Graph{Ring(101), Path(64), Grid(9, 13), Caterpillar(12, 4), Star(33)} {
		if est, exact := g.DiameterEstimate(), g.DiameterExact(); est != exact {
			t.Errorf("%s: estimate %d != exact %d", g.Name(), est, exact)
		}
	}
}

// TestDiameterExactParallelMatchesSerial runs the worker-pool all-pairs
// computation against a serial recomputation on a shape large enough to
// actually shard.
func TestDiameterExactParallelMatchesSerial(t *testing.T) {
	g, err := RandomConnected(600, 1800, rand.New(rand.NewSource(41)))
	if err != nil {
		t.Fatal(err)
	}
	serial := 0
	for u := 0; u < g.N(); u++ {
		if e := g.Eccentricity(u); e > serial {
			serial = e
		}
	}
	if got := g.DiameterExact(); got != serial {
		t.Fatalf("parallel diameter %d != serial %d", got, serial)
	}
}

// TestDiameterExactDisconnected pins the -1 contract on the pooled path.
func TestDiameterExactDisconnected(t *testing.T) {
	// Two rings, no connection: 600 nodes so the parallel path engages.
	edges := make([][2]int, 0, 600)
	for i := 0; i < 300; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 300})
		edges = append(edges, [2]int{300 + i, 300 + (i+1)%300})
	}
	g, err := NewFromEdges(600, edges)
	if err != nil {
		t.Fatal(err)
	}
	if d := g.DiameterExact(); d != -1 {
		t.Fatalf("disconnected diameter %d, want -1", d)
	}
	if d := g.DiameterEstimate(); d != -1 {
		t.Fatalf("disconnected estimate %d, want -1", d)
	}
}

// TestCSRAccessors checks the borrowed-array contracts.
func TestCSRAccessors(t *testing.T) {
	g := Torus(5, 6)
	off, nbr := g.CSR()
	back := g.PortBacks()
	if len(off) != g.N()+1 || len(nbr) != 2*g.M() || len(back) != len(nbr) {
		t.Fatalf("CSR shapes: off=%d nbr=%d back=%d (n=%d m=%d)", len(off), len(nbr), len(back), g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if int(off[u+1]-off[u]) != g.Degree(u) {
			t.Fatalf("off row %d inconsistent with Degree", u)
		}
		for p := 0; p < g.Degree(u); p++ {
			if int(nbr[int(off[u])+p]) != g.Neighbor(u, p) {
				t.Fatalf("nbr[off[%d]+%d] != Neighbor", u, p)
			}
			if int(back[int(off[u])+p]) != g.PortBack(u, p) {
				t.Fatalf("back[off[%d]+%d] != PortBack", u, p)
			}
		}
	}
}

func ExampleGraph_CSR() {
	g := Ring(4)
	off, nbr := g.CSR()
	fmt.Println("off:", off)
	fmt.Println("nbr:", nbr)
	// Output:
	// off: [0 2 4 6 8]
	// nbr: [1 3 0 2 1 3 2 0]
}
