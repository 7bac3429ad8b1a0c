package graph

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Path returns the path graph on n nodes: 0-1-2-...-(n-1).
func Path(n int) *Graph {
	return mustFromStream(n, "path", func(yield func(u, v int)) {
		for i := 0; i+1 < n; i++ {
			yield(i, i+1)
		}
	})
}

// Ring returns the cycle graph on n nodes (n >= 3).
func Ring(n int) *Graph {
	if n < 3 {
		panic("graph: Ring needs n >= 3")
	}
	return mustFromStream(n, "ring", func(yield func(u, v int)) {
		for i := 0; i < n; i++ {
			yield(i, (i+1)%n)
		}
	})
}

// Star returns the star graph: node 0 is the hub connected to 1..n-1.
func Star(n int) *Graph {
	return mustFromStream(n, "star", func(yield func(u, v int)) {
		for i := 1; i < n; i++ {
			yield(0, i)
		}
	})
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	return mustFromStream(n, "complete", func(yield func(u, v int)) {
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				yield(u, v)
			}
		}
	})
}

// Grid returns the rows×cols grid graph.
func Grid(rows, cols int) *Graph {
	idx := func(r, c int) int { return r*cols + c }
	return mustFromStream(rows*cols, "grid", func(yield func(u, v int)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if c+1 < cols {
					yield(idx(r, c), idx(r, c+1))
				}
				if r+1 < rows {
					yield(idx(r, c), idx(r+1, c))
				}
			}
		}
	})
}

// Torus returns the rows×cols torus (grid with wraparound); rows, cols >= 3.
func Torus(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus needs rows, cols >= 3")
	}
	idx := func(r, c int) int { return r*cols + c }
	return mustFromStream(rows*cols, "torus", func(yield func(u, v int)) {
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				yield(idx(r, c), idx(r, (c+1)%cols))
				yield(idx(r, c), idx((r+1)%rows, c))
			}
		}
	})
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes.
func Hypercube(d int) *Graph {
	n := 1 << d
	return mustFromStream(n, "hypercube", func(yield func(u, v int)) {
		for u := 0; u < n; u++ {
			for b := 0; b < d; b++ {
				if v := u ^ (1 << b); u < v {
					yield(u, v)
				}
			}
		}
	})
}

// normEdge orders an edge's endpoints (low, high).
func normEdge(u, v int) [2]int {
	if u > v {
		u, v = v, u
	}
	return [2]int{u, v}
}

// IDSet is a duplicate filter for up to n int64 keys, the one behind
// sim.RandomIDsInto, the engine's ID validation and the random builders'
// edge dedup: open addressing with linear probing in a power-of-two table
// of at least 2n slots, Fibonacci-hashed (the multiply spreads the key
// over the high bits, which the shift keeps), where 0 marks a free slot
// and the key 0, which a caller may assign as an identifier, has a flag
// of its own. Reset sizes it before the first Add; the table never grows.
type IDSet struct {
	slots []int64
	shift uint // 64 − log2(len(slots))
	zero  bool
}

// Reset empties s for up to n identifiers, keeping its table unless the
// table is too small or more than eight times the size n needs.
func (s *IDSet) Reset(n int) {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	if c := cap(s.slots); size <= c && 8*size >= c {
		s.slots = s.slots[:size]
		clear(s.slots)
	} else {
		s.slots = make([]int64, size)
	}
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.zero = false
}

// Add inserts id and reports whether it was new. At most n identifiers
// may be added after Reset(n).
func (s *IDSet) Add(id int64) bool {
	if id == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	mask := len(s.slots) - 1
	for i := int(uint64(id) * 0x9e3779b97f4a7c15 >> s.shift); ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = id
			return true
		case id:
			return false
		}
	}
}

// edgeSet is the online dedup behind the randomized builders, whose
// rejection sampling needs membership answers mid-stream (a sort-based
// dedup cannot answer those). It is a flat n×n bit matrix — O(1) per
// probe, no hashing — where that is no larger than an IDSet of packEdge
// keys, which takes at least 16 B an expected edge, and the IDSet
// otherwise. Both give identical answers, so the RNG consumption of a
// seeded build is representation-independent.
type edgeSet struct {
	n    int
	bits []uint64 // n*n bit matrix, nil for the table
	keys IDSet    // packEdge keys, when bits is nil
}

// newEdgeSet sizes a set for sizeHint edges on n nodes, the most its
// builder inserts. The matrix's n²/8 bytes win on dense graphs — on a
// 2-vCPU Xeon, random:1024:400000 builds in 40 ms with it and 117 ms with
// the table — and the table on sparse ones, where the matrix is mostly
// zeros: random:8192:65536 builds in 10 ms and 10.6 MB with the matrix,
// 5 ms and 3.3 MB with the table.
func newEdgeSet(n, sizeHint int) *edgeSet {
	s := &edgeSet{n: n}
	if n*n <= 128*sizeHint {
		s.bits = make([]uint64, (n*n+63)/64)
	} else {
		s.keys.Reset(sizeHint)
	}
	return s
}

// insert adds the normalized edge (u,v) and reports whether it was new.
func (s *edgeSet) insert(u, v int) bool {
	if u > v {
		u, v = v, u
	}
	if s.bits != nil {
		k := u*s.n + v
		w, b := k/64, uint64(1)<<(k%64)
		if s.bits[w]&b != 0 {
			return false
		}
		s.bits[w] |= b
		return true
	}
	return s.keys.Add(int64(packEdge(u, v)))
}

// checkRandomConnected is RandomConnected's precondition (spec.go answers
// size questions by it without building).
func checkRandomConnected(n, m int) error {
	if n < 1 {
		return fmt.Errorf("graph: RandomConnected needs n >= 1, got %d", n)
	}
	if m < n-1 || int64(m) > pairs(n) {
		return fmt.Errorf("graph: RandomConnected needs n-1 <= m <= n(n-1)/2, got n=%d m=%d", n, m)
	}
	return nil
}

// RandomConnected returns a uniformly-wired connected graph with n nodes and
// exactly m edges (n-1 <= m <= n(n-1)/2): a random spanning tree plus m-n+1
// additional distinct random edges. The RNG is consumed in a fixed order
// independent of the storage representation, so seeded graphs are stable
// across refactors.
func RandomConnected(n, m int, rng *rand.Rand) (*Graph, error) {
	if err := checkRandomConnected(n, m); err != nil {
		return nil, err
	}
	perm := rng.Perm(n)
	used := newEdgeSet(n, m)
	edges := make([][2]int, 0, m)
	// Random spanning tree: attach each node (in random order) to a random
	// earlier node. This is not uniform over all trees but gives well-mixed
	// connected topologies, which is all the experiments need.
	for i := 1; i < n; i++ {
		k := normEdge(perm[i], perm[rng.Intn(i)])
		used.insert(k[0], k[1])
		edges = append(edges, k)
	}
	for len(edges) < m {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		if !used.insert(u, v) {
			continue
		}
		edges = append(edges, normEdge(u, v))
	}
	g := fromStream(n, "random", func(yield func(u, v int)) {
		for _, e := range edges {
			yield(e[0], e[1])
		}
	})
	return g, nil
}
