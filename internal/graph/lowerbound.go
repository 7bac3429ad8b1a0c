package graph

import "fmt"

// Lollipop is the base graph G0 used by the proof of Theorem 3.1 for
// algorithms that know the diameter: a κ-clique (nodes 0..κ-1) joined to a
// path of n-κ nodes (nodes κ..n-1), where node κ (the path head b1) is
// connected to every clique node. κ is the largest integer with
// κ(κ-1)/2 + κ <= m, so the graph has Θ(m) edges and Θ(n) nodes.
type Lollipop struct {
	*Graph
	// Kappa is the clique size κ.
	Kappa int
}

// lollipopKappa checks NewLollipop's precondition and returns the clique
// size κ it builds: the largest κ with κ(κ-1)/2 + κ <= m, at most n-2.
func lollipopKappa(n, m int) (int, error) {
	if n < 4 {
		return 0, fmt.Errorf("graph: lollipop needs n >= 4, got %d", n)
	}
	if m < n {
		return 0, fmt.Errorf("graph: lollipop needs m >= n, got n=%d m=%d", n, m)
	}
	// κ <= n-2 keeps at least a 2-node path, so a dumbbell has positive
	// bridge distance; the bound also ends the search.
	kappa := 2
	for kappa < n-2 && pairs(kappa+1)+int64(kappa)+1 <= int64(m) {
		kappa++
	}
	return kappa, nil
}

// NewLollipop builds the Theorem 3.1 base graph for the requested node and
// edge budget. Requires n >= 4 and n <= m.
func NewLollipop(n, m int) (*Lollipop, error) {
	kappa, err := lollipopKappa(n, m)
	if err != nil {
		return nil, err
	}
	g := mustFromStream(n, "lollipop", func(yield func(u, v int)) {
		for u := 0; u < kappa; u++ {
			for v := u + 1; v < kappa; v++ {
				yield(u, v)
			}
		}
		b1 := kappa
		for u := 0; u < kappa; u++ {
			yield(u, b1)
		}
		for i := kappa; i+1 < n; i++ {
			yield(i, i+1)
		}
	})
	return &Lollipop{Graph: g, Kappa: kappa}, nil
}

// CliqueEdges returns the edges of the κ-clique part; these are the edges
// the Theorem 3.1 construction is allowed to open when forming dumbbells
// (opening a clique edge keeps the dumbbell diameter independent of which
// edge was opened).
func (l *Lollipop) CliqueEdges() [][2]int {
	edges := make([][2]int, 0, l.Kappa*(l.Kappa-1)/2)
	for u := 0; u < l.Kappa; u++ {
		for v := u + 1; v < l.Kappa; v++ {
			edges = append(edges, [2]int{u, v})
		}
	}
	return edges
}

// PathTail returns the node at the far end of the path (b_{n-κ}); the
// dumbbell diameter is realized between the two tails.
func (l *Lollipop) PathTail() int { return l.N() - 1 }

// Dumbbell combines two "open graphs" G'[e'] and G”[e”] into the
// Dumbbell(G'[e'], G”[e”]) graph of Theorem 3.1: edge e1 is removed from
// g1, edge e2 from the (index-shifted) copy of g2, and two bridge edges are
// added connecting the freed port slots pairwise: (e1[0], e2[0]+off) and
// (e1[1], e2[1]+off).
//
// The freed port positions are reused for the bridges, so every non-bridge
// port mapping is identical to the one in the underlying closed graphs —
// exactly the indistinguishability the lower-bound proof relies on.
type Dumbbell struct {
	*Graph
	// Bridges are the two bridge edges, endpoints ordered (left, right).
	Bridges [2][2]int
	// Off is the index offset of the right copy (== g1.N()).
	Off int
}

// NewDumbbell builds the dumbbell; e1 must be an edge of g1 and e2 an edge
// of g2 (right-copy indices are pre-offset, i.e. pass g2's own indices).
// The freed port slots are located through the closed graphs' O(1)
// reverse-port tables; no adjacency scans.
func NewDumbbell(g1, g2 *Graph, e1, e2 [2]int) (*Dumbbell, error) {
	p1 := g1.PortTo(e1[0], e1[1])
	if p1 < 0 {
		return nil, fmt.Errorf("graph: dumbbell: e1=(%d,%d) not an edge of g1", e1[0], e1[1])
	}
	p2 := g2.PortTo(e2[0], e2[1])
	if p2 < 0 {
		return nil, fmt.Errorf("graph: dumbbell: e2=(%d,%d) not an edge of g2", e2[0], e2[1])
	}
	// The four freed slots: (node, port) of each opened edge's endpoints,
	// the far-end ports read from the reverse-port tables.
	ports1 := [2]int{p1, g1.PortBack(e1[0], p1)}
	ports2 := [2]int{p2, g2.PortBack(e2[0], p2)}

	off := g1.N()
	n1, n2 := g1.N(), g2.N()
	n := n1 + n2
	g := &Graph{
		off:  make([]int32, n+1),
		nbr:  make([]int32, len(g1.nbr)+len(g2.nbr)),
		back: make([]int32, len(g1.back)+len(g2.back)),
		m:    g1.m + g2.m,
		name: "dumbbell",
	}
	copy(g.off, g1.off)
	shift := g1.off[n1]
	for u := 0; u <= n2; u++ {
		g.off[n1+u] = shift + g2.off[u]
	}
	copy(g.nbr, g1.nbr)
	for i, v := range g2.nbr {
		g.nbr[int(shift)+i] = v + int32(off)
	}
	copy(g.back, g1.back)
	copy(g.back[shift:], g2.back)
	// Rewire the freed slots pairwise: e1[i]'s freed port now leads to
	// e2[i]+off, and vice versa; each side's back entry is the far side's
	// freed port.
	for i := 0; i < 2; i++ {
		li := int(g.off[e1[i]]) + ports1[i]
		ri := int(g.off[e2[i]+off]) + ports2[i]
		g.nbr[li] = int32(e2[i] + off)
		g.back[li] = int32(ports2[i])
		g.nbr[ri] = int32(e1[i])
		g.back[ri] = int32(ports1[i])
	}
	return &Dumbbell{
		Graph:   g,
		Bridges: [2][2]int{{e1[0], e2[0] + off}, {e1[1], e2[1] + off}},
		Off:     off,
	}, nil
}

// CliqueCycle is the Figure 1 / Theorem 3.13 lower-bound construction: D'
// cliques of γ nodes each, arranged in a cycle and partitioned into four
// arcs C0..C3. Consecutive cliques are connected by a single edge, so any
// causal influence between opposite arcs needs Ω(D') rounds.
type CliqueCycle struct {
	*Graph
	// DPrime is the number of cliques D' = 4⌈D/4⌉.
	DPrime int
	// Gamma is the clique size γ (smallest with γ·D' >= n).
	Gamma int
}

// cliqueCycleShape checks NewCliqueCycle's precondition and returns the
// number of cliques D' and the clique size γ it builds.
func cliqueCycleShape(n, d int) (dp, gamma int, err error) {
	if d <= 2 || d >= n {
		return 0, 0, fmt.Errorf("graph: clique-cycle needs 2 < d < n, got n=%d d=%d", n, d)
	}
	dp = 4 * ((d + 3) / 4)
	gamma = (n-1)/dp + 1 // ⌈n/dp⌉ without the overflow
	return dp, gamma, nil
}

// NewCliqueCycle builds the construction for target size n and diameter
// parameter d (2 < d < n). The resulting graph has γ·D' = Θ(n) nodes and
// diameter Θ(d).
func NewCliqueCycle(n, d int) (*CliqueCycle, error) {
	dp, gamma, err := cliqueCycleShape(n, d)
	if err != nil {
		return nil, err
	}
	total := gamma * dp
	node := func(clique, k int) int { return clique*gamma + k }
	g := mustFromStream(total, "clique-cycle", func(yield func(u, v int)) {
		for c := 0; c < dp; c++ {
			for a := 0; a < gamma; a++ {
				for b := a + 1; b < gamma; b++ {
					yield(node(c, a), node(c, b))
				}
			}
			// Single connecting edge: last node of clique c to first node of
			// clique c+1 (mod D').
			yield(node(c, gamma-1), node((c+1)%dp, 0))
		}
	})
	return &CliqueCycle{Graph: g, DPrime: dp, Gamma: gamma}, nil
}

// Arc returns the arc index (0..3) of node u.
func (cc *CliqueCycle) Arc(u int) int {
	clique := u / cc.Gamma
	return clique / (cc.DPrime / 4)
}
