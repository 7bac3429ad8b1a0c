package graph

import (
	"fmt"
	"math/rand"
)

// checkRandomRegular is RandomRegular's precondition (spec.go answers size
// questions by it without building).
func checkRandomRegular(n, d int) error {
	if d < 1 || d >= n {
		return fmt.Errorf("graph: RandomRegular needs 1 <= d < n, got n=%d d=%d", n, d)
	}
	if n%2 != 0 && d%2 != 0 {
		return fmt.Errorf("graph: RandomRegular needs n·d even, got n=%d d=%d", n, d)
	}
	return nil
}

// RandomRegular returns a random d-regular graph on n nodes (n·d even,
// d < n), built by the pairing model with restarts: d-regular random
// graphs are expanders with high probability, the graph class for which
// [14] showed the Ω(n) message bound fails (context for the paper's
// introduction). Rejection-samples until simple and connected.
func RandomRegular(n, d int, rng *rand.Rand) (*Graph, error) {
	if err := checkRandomRegular(n, d); err != nil {
		return nil, err
	}
	for attempt := 0; attempt < 200; attempt++ {
		stubs := make([]int, 0, n*d)
		for u := 0; u < n; u++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, u)
			}
		}
		used := newEdgeSet(n, n*d/2)
		edges := make([][2]int, 0, n*d/2)
		ok := true
		// Steger–Wormald style incremental pairing: draw random valid stub
		// pairs; give up on this attempt if the tail gets stuck.
		for len(stubs) > 0 && ok {
			found := false
			for try := 0; try < 50; try++ {
				i := rng.Intn(len(stubs))
				j := rng.Intn(len(stubs))
				if i == j || stubs[i] == stubs[j] {
					continue
				}
				if !used.insert(stubs[i], stubs[j]) {
					continue
				}
				edges = append(edges, normEdge(stubs[i], stubs[j]))
				if i < j {
					i, j = j, i
				}
				stubs[i] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				stubs[j] = stubs[len(stubs)-1]
				stubs = stubs[:len(stubs)-1]
				found = true
				break
			}
			if !found {
				ok = false
			}
		}
		if !ok {
			continue
		}
		g := fromStream(n, "regular", func(yield func(u, v int)) {
			for _, e := range edges {
				yield(e[0], e[1])
			}
		})
		if !g.Connected() {
			continue
		}
		return g, nil
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d, d=%d): no simple connected pairing in 200 attempts", n, d)
}

// CompleteBipartite returns K_{a,b}: parts {0..a-1} and {a..a+b-1}.
func CompleteBipartite(a, b int) *Graph {
	return mustFromStream(a+b, "bipartite", func(yield func(u, v int)) {
		for u := 0; u < a; u++ {
			for v := a; v < a+b; v++ {
				yield(u, v)
			}
		}
	})
}

// Caterpillar returns a path of spine nodes each with legs leaf nodes —
// a tree with diameter Θ(spine) and n = spine·(legs+1) nodes; a worst
// case for candidate placement (most nodes are leaves).
func Caterpillar(spine, legs int) *Graph {
	if spine < 1 || legs < 0 {
		panic("graph: Caterpillar needs spine >= 1 and legs >= 0")
	}
	n := spine * (legs + 1)
	return mustFromStream(n, "caterpillar", func(yield func(u, v int)) {
		for s := 0; s+1 < spine; s++ {
			yield(s, s+1)
		}
		leaf := spine
		for s := 0; s < spine; s++ {
			for l := 0; l < legs; l++ {
				yield(s, leaf)
				leaf++
			}
		}
	})
}
