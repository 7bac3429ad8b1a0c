package graph

import (
	"fmt"
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

// edgeSet is the online dedup behind the randomized builders, whose
// rejection sampling needs membership answers mid-stream (a sort-based
// dedup cannot answer those). It is a flat n×n bit matrix — O(1) per
// probe, no hashing — where that is no larger than the open-addressing
// table of packEdge keys, which takes at least 16 B an expected edge, and
// the table otherwise. Both give identical answers, so the RNG consumption
// of a seeded build is representation-independent.
type edgeSet struct {
	n     int
	bits  []uint64 // n*n bit matrix, nil for the table
	keys  []uint64 // linear-probing table, 2^(64-shift) long; 0 is empty
	shift uint
	used  int // keys held in the table
}

// newEdgeSet sizes a set for sizeHint edges on n nodes. The matrix's n²/8
// bytes win on dense graphs — on a 2-vCPU Xeon, random:1024:400000 builds in 40 ms with it
// and 117 ms with the table — and the table on sparse ones, where the
// matrix is mostly zeros: random:8192:65536 builds in 10 ms and 10.6 MB
// with the matrix, 5 ms and 3.3 MB with the table.
func newEdgeSet(n, sizeHint int) *edgeSet {
	s := &edgeSet{n: n}
	if n*n <= 128*sizeHint {
		s.bits = make([]uint64, (n*n+63)/64)
	} else {
		s.grow(max(16, 2*sizeHint))
	}
	return s
}

// grow rehashes the table into the smallest power of two of at least
// size slots.
func (s *edgeSet) grow(size int) {
	s.shift = 64
	for 1<<(64-s.shift) < size {
		s.shift--
	}
	old := s.keys
	s.keys = make([]uint64, 1<<(64-s.shift))
	for _, k := range old {
		if k != 0 {
			s.add(k)
		}
	}
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
	// u < v, so a key is never the empty 0.
	if !s.add(packEdge(u, v)) {
		return false
	}
	if s.used++; 2*s.used > len(s.keys) {
		s.grow(2 * len(s.keys))
	}
	return true
}

// add puts key k in the table unless it is there, reporting which.
func (s *edgeSet) add(k uint64) bool {
	mask := uint64(len(s.keys) - 1)
	// Fibonacci hashing: the multiply spreads both endpoints over the
	// high bits, which the shift keeps.
	i := k * 0x9e3779b97f4a7c15 >> s.shift
	for {
		switch s.keys[i] {
		case 0:
			s.keys[i] = k
			return true
		case k:
			return false
		}
		i = (i + 1) & mask
	}
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
