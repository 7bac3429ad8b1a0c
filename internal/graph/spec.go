package graph

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// FromSpec builds a graph from a compact textual family spec. It is the
// single parser behind the ule CLI's -graph flag and the sweep harness's
// graph axis, so both accept the same grammar:
//
//	path:N ring:N star:N complete:N hypercube:DIM
//	grid:RxC torus:RxC bipartite:AxB
//	random:N:M regular:N:D caterpillar:SPINE:LEGS
//	lollipop:N:M dumbbell:N:M cliquecycle:N:D
//
// Randomized families (random, regular, dumbbell) are deterministic given
// (spec, seed); deterministic families ignore the seed.
func FromSpec(spec string, seed int64) (*Graph, error) {
	f, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	return f.build(seed)
}

// SpecSize returns the node and edge count of the graph FromSpec(spec, ·)
// builds, by arithmetic alone — the seed of a randomized family moves
// edges, never their number — so that a caller can refuse a spec for its
// size before paying for it. It fails exactly on the specs FromSpec
// refuses for their text; the one failure it cannot foresee is regular:N:D
// finding no connected pairing in its 200 draws.
func SpecSize(spec string) (nodes, edges int64, err error) {
	f, err := parseSpec(spec)
	if err != nil {
		return 0, 0, err
	}
	nodes, edges = f.size()
	return nodes, edges, nil
}

// family is a parsed spec: a family name and its parameters, inside the
// family's documented range.
type family struct {
	kind string
	a, b int // b is 0 for the one-parameter families
}

// parseSpec is the grammar: the one place that decides what is a valid
// spec, for the builder and the size arithmetic alike. The constructors
// reserve panics for programmatic misuse, but a spec string is user
// input, so every family's minimum and every constructor's precondition
// is a parse error here. A parameter beyond the CSR arrays' int32 index
// range describes no graph this package can hold and is refused as such,
// which also keeps every product in size inside an int64.
func parseSpec(spec string) (family, error) {
	parts := strings.Split(spec, ":")
	f := family{kind: parts[0]}
	num := func(text string) (int, error) {
		v, err := strconv.Atoi(text)
		if err != nil {
			return 0, fmt.Errorf("graph spec %q: bad parameter %q", spec, text)
		}
		if v > math.MaxInt32 {
			return 0, fmt.Errorf("graph spec %q: parameter %q out of range", spec, text)
		}
		return v, nil
	}
	atLeast := func(v, min int, what string) error {
		if v < min {
			return fmt.Errorf("graph spec %q: %s must be >= %d", spec, what, min)
		}
		return nil
	}
	// params reads the family's two parameters from texts and holds both
	// to min.
	params := func(texts []string, min int) (err error) {
		if f.a, err = num(texts[0]); err != nil {
			return err
		}
		if f.b, err = num(texts[1]); err != nil {
			return err
		}
		if err = atLeast(f.a, min, "A"); err != nil {
			return err
		}
		return atLeast(f.b, min, "B")
	}

	var err error
	switch f.kind {
	case "path", "ring", "star", "complete", "hypercube":
		if len(parts) != 2 {
			return f, fmt.Errorf("graph spec %q: want %s:N", spec, f.kind)
		}
		if f.a, err = num(parts[1]); err != nil {
			return f, err
		}
		switch f.kind {
		case "ring":
			err = atLeast(f.a, 3, "N")
		case "hypercube":
			// 2^DIM nodes: reject dimensions whose node count cannot even
			// be represented, before the shift wraps or the alloc explodes.
			if f.a < 0 || f.a > 30 {
				err = fmt.Errorf("graph spec %q: hypercube dimension out of range [0, 30]", spec)
			}
		default:
			err = atLeast(f.a, 1, "N")
		}
	case "grid", "torus", "bipartite":
		if len(parts) != 2 {
			return f, fmt.Errorf("graph spec %q: want %s:AxB", spec, f.kind)
		}
		dims := strings.Split(parts[1], "x")
		if len(dims) != 2 {
			return f, fmt.Errorf("graph spec %q: want AxB, got %q", spec, parts[1])
		}
		min := 1
		if f.kind == "torus" {
			min = 3
		}
		err = params(dims, min)
	case "random", "regular", "caterpillar", "lollipop", "dumbbell", "cliquecycle":
		if len(parts) != 3 {
			return f, fmt.Errorf("graph spec %q: want %s:A:B", spec, f.kind)
		}
		if err = params(parts[1:], 0); err != nil {
			return f, err
		}
		switch f.kind {
		case "random":
			err = checkRandomConnected(f.a, f.b)
		case "regular":
			err = checkRandomRegular(f.a, f.b)
		case "caterpillar":
			err = atLeast(f.a, 1, "SPINE")
		case "lollipop", "dumbbell":
			_, err = lollipopKappa(f.a, f.b)
		default:
			_, _, err = cliqueCycleShape(f.a, f.b)
		}
	default:
		err = fmt.Errorf("unknown graph family %q in spec %q", f.kind, spec)
	}
	return f, err
}

// pairs is n(n-1)/2, the edges of K_n.
func pairs(n int) int64 { return int64(n) * int64(n-1) / 2 }

// size is the node and edge count of the family's graphs.
func (f family) size() (nodes, edges int64) {
	a, b := int64(f.a), int64(f.b)
	switch f.kind {
	case "path", "star":
		return a, a - 1
	case "ring":
		return a, a
	case "complete":
		return a, pairs(f.a)
	case "hypercube":
		return 1 << a, a << a / 2
	case "grid":
		return a * b, a*(b-1) + b*(a-1)
	case "torus":
		return a * b, 2 * a * b
	case "bipartite":
		return a + b, a * b
	case "random":
		return a, b
	case "regular":
		return a, a * b / 2
	case "caterpillar":
		return a * (b + 1), a*(b+1) - 1
	case "lollipop", "dumbbell":
		// A κ-clique, κ edges from it to the head of a path of n-κ nodes:
		// κ(κ-1)/2 + κ + (n-κ-1).
		kappa, _ := lollipopKappa(f.a, f.b)
		edges = pairs(kappa) + a - 1
		if f.kind == "dumbbell" {
			// Two copies; the bridges take the place of the opened edges.
			return 2 * a, 2 * edges
		}
		return a, edges
	default:
		// D' cliques of γ, each with one edge to the next.
		dp, gamma, _ := cliqueCycleShape(f.a, f.b)
		return int64(dp) * int64(gamma), int64(dp) * (pairs(gamma) + 1)
	}
}

// build constructs the family's graph; seed matters to the randomized
// families only.
func (f family) build(seed int64) (*Graph, error) {
	switch f.kind {
	case "path":
		return Path(f.a), nil
	case "ring":
		return Ring(f.a), nil
	case "star":
		return Star(f.a), nil
	case "complete":
		return Complete(f.a), nil
	case "hypercube":
		return Hypercube(f.a), nil
	case "grid":
		return Grid(f.a, f.b), nil
	case "torus":
		return Torus(f.a, f.b), nil
	case "bipartite":
		return CompleteBipartite(f.a, f.b), nil
	case "random":
		return RandomConnected(f.a, f.b, rand.New(rand.NewSource(seed)))
	case "regular":
		return RandomRegular(f.a, f.b, rand.New(rand.NewSource(seed)))
	case "caterpillar":
		return Caterpillar(f.a, f.b), nil
	case "lollipop":
		l, err := NewLollipop(f.a, f.b)
		if err != nil {
			return nil, err
		}
		return l.Graph, nil
	case "dumbbell":
		d, _, err := RandomDumbbell(f.a, f.b, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		return d.Graph, nil
	default:
		cc, err := NewCliqueCycle(f.a, f.b)
		if err != nil {
			return nil, err
		}
		return cc.Graph, nil
	}
}

// RandomDumbbell samples a Theorem 3.1 dumbbell with per-side node budget n
// and edge budget m: a lollipop base graph, two port-shuffled copies (the
// adversarial port-mapping choice, applied to the closed graphs so the
// bridge rewiring reuses the freed port slots), joined at two uniformly
// chosen clique edges. It also returns the lollipop clique size κ, which
// determines the invariant diameter 2(n−κ)+1.
func RandomDumbbell(n, m int, rng *rand.Rand) (*Dumbbell, int, error) {
	base, err := NewLollipop(n, m)
	if err != nil {
		return nil, 0, err
	}
	left := base.Graph.Clone()
	right := base.Graph.Clone()
	left.ShufflePorts(rng)
	right.ShufflePorts(rng)
	clique := base.CliqueEdges()
	e1 := clique[rng.Intn(len(clique))]
	e2 := clique[rng.Intn(len(clique))]
	d, err := NewDumbbell(left, right, e1, e2)
	if err != nil {
		return nil, 0, err
	}
	return d, base.Kappa, nil
}
