package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ule/internal/graph"
)

// compareSources drives a lazily seeded and a math/rand generator through
// the same calls — ops picks them, one byte per call, cycled until at
// least minDraws calls were made — and fails at the first difference. An
// op byte's low three bits choose the method, its high bits the argument;
// op 7 reseeds both (with a seed derived from the op's position), which on
// the lazy side happens after a partial fill.
func compareSources(t *testing.T, seed int64, ops []byte, minDraws int) {
	t.Helper()
	if len(ops) == 0 {
		ops = []byte{0}
	}
	want := rand.New(rand.NewSource(seed))
	got := NewRand(seed)
	for i := 0; i < minDraws || i < len(ops); i++ {
		op := ops[i%len(ops)]
		arg := int(op>>3) + 1
		var w, g any
		switch op & 7 {
		case 0:
			w, g = want.Int63(), got.Int63()
		case 1:
			w, g = want.Uint64(), got.Uint64()
		case 2:
			w, g = want.Float64(), got.Float64()
		case 3:
			n := int64(arg) << (op >> 3) // 1 .. 32<<31, powers of two and not
			w, g = want.Int63n(n), got.Int63n(n)
		case 4:
			w, g = want.Intn(arg), got.Intn(arg)
		case 5:
			wp, gp := want.Perm(arg%9), got.Perm(arg%9)
			for j := range wp {
				if wp[j] != gp[j] {
					t.Fatalf("seed %d call %d: Perm = %v, math/rand %v", seed, i, gp, wp)
				}
			}
		case 6:
			w, g = want.Uint32(), got.Uint32()
		case 7:
			if i >= len(ops) {
				continue // reseed only in the first pass, so long runs wrap the register
			}
			next := seed ^ int64(SplitMix64(uint64(i)))
			want.Seed(next)
			got.Seed(next)
		}
		if w != g {
			t.Fatalf("seed %d call %d (op %#x): got %v, math/rand %v", seed, i, op, g, w)
		}
	}
}

// lazySeeds are the seeds with a special path through Seed's reduction
// mod 2³¹−1: zero and its multiples (replaced by 89482311), negatives,
// the modulus's neighbours, the int64 extremes, and the replacement value
// itself.
var lazySeeds = []int64{
	0, 1, -1, 2, int32max - 1, int32max, int32max + 1, -int32max, 2 * int32max, 1 << 31,
	math.MinInt64, math.MaxInt64, math.MinInt64 + 1, 89482311, -89482311, 42, 1 << 40,
}

// TestLazySourceMatchesMathRand: every method protocols reach through
// *rand.Rand draws the same values from the lazy source as from
// rand.NewSource, over more than two turns of the 607-word register (the
// first turn seeds every word, later turns read the fed-back sums).
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := append([]int64(nil), lazySeeds...)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	mixed := make([]byte, 251)
	for i := range mixed {
		mixed[i] = byte(r.Intn(256))
		if mixed[i]&7 == 7 && i%50 != 0 {
			mixed[i]-- // keep a few reseeds, not one call in eight
		}
	}
	for _, seed := range seeds {
		for op := byte(0); op < 7; op++ {
			compareSources(t, seed, []byte{op | 5<<3}, 3*rngLen)
		}
		compareSources(t, seed, mixed, 4*rngLen)
	}
}

// boundaryDepths are the draw counts around the end of the closed form:
// the last two closed-form draws, the draw that builds the register and
// the one after it, one turn of the register, the turn plus the 273 draws
// the closed form stood in for, and two turns.
var boundaryDepths = []int{rngTap - 1, rngTap, rngTap + 1, rngTap + 2, rngLen, rngLen + rngTap, 2 * rngLen}

// countedSource is math/rand's source, counting the values drawn from it.
type countedSource struct {
	rand.Source64
	n int
}

func (c *countedSource) Int63() int64   { c.n++; return c.Source64.Int63() }
func (c *countedSource) Uint64() uint64 { c.n++; return c.Source64.Uint64() }

// boundaryMethods name the *rand.Rand calls drawTo steps with.
var boundaryMethods = []string{"Int63", "Uint64", "Float64", "Int63n(2^40)", "Int63n(10^9+7)", "Perm(9)"}

// drawTo steps want (whose source is n) and got with one method until
// want's source has made exactly depth draws, failing at the first
// difference. Perm(9) makes nine draws; closer than that to depth, the
// rest are Int63.
func drawTo(t *testing.T, want, got *rand.Rand, n *countedSource, method, depth int) {
	t.Helper()
	for n.n < depth {
		var w, g any
		switch {
		case method == 1:
			w, g = want.Uint64(), got.Uint64()
		case method == 2:
			w, g = want.Float64(), got.Float64()
		case method == 3:
			w, g = want.Int63n(1<<40), got.Int63n(1<<40)
		case method == 4:
			w, g = want.Int63n(1e9+7), got.Int63n(1e9+7)
		case method == 5 && depth-n.n >= 9:
			wp, gp := want.Perm(9), got.Perm(9)
			w, g = fmt.Sprint(wp), fmt.Sprint(gp)
		default:
			w, g = want.Int63(), got.Int63()
		}
		if w != g {
			t.Fatalf("%s, draw %d on the way to %d: got %v, math/rand %v", boundaryMethods[method], n.n, depth, g, w)
		}
	}
	if n.n != depth {
		t.Fatalf("%s overshot depth %d: %d draws", boundaryMethods[method], depth, n.n)
	}
}

// TestLazySourceBoundary: the closed form ends at draw 273 and the register
// is built at draw 274. Every method brings a generator to each boundary
// depth and must agree with math/rand on the way; a reseed at that depth
// must then replay math/rand through the closed form and past it again,
// so that a register kept from before the Seed is never read.
func TestLazySourceBoundary(t *testing.T) {
	seeds := append([]int64(nil), lazySeeds...)
	r := rand.New(rand.NewSource(274))
	for i := 0; i < 16; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	for _, seed := range seeds {
		for method := range boundaryMethods {
			for _, depth := range boundaryDepths {
				n := &countedSource{Source64: rand.NewSource(seed).(rand.Source64)}
				want, got := rand.New(n), NewRand(seed)
				drawTo(t, want, got, n, method, depth)
				next := seed ^ int64(SplitMix64(uint64(depth)))
				want.Seed(next)
				got.Seed(next)
				n.n = 0
				drawTo(t, want, got, n, method, rngTap)
				drawTo(t, want, got, n, method, rngLen+rngTap+1)
			}
		}
	}
}

// FuzzLazySource lets the fuzzer pick the seed and the call sequence.
func FuzzLazySource(f *testing.F) {
	for _, seed := range lazySeeds {
		f.Add(seed, []byte{0})
		f.Add(seed, []byte{1, 2, 0x2b, 0x7c, 5 | 7<<3, 6, 7, 0, 0xf3, 4})
	}
	for _, depth := range boundaryDepths { // depth Int63 draws, then a reseed
		ops := make([]byte, depth+1)
		ops[depth] = 7
		f.Add(int64(depth), ops)
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 1<<12 {
			ops = ops[:1<<12]
		}
		compareSources(t, seed, ops, 2*rngLen+100)
	})
}

// drawProto has node u draw coins(u) coins in round 1 and halt, recording
// them: different nodes leave their generators at different depths.
type drawProto struct {
	drawn [][]int64
	first int // node 0's coins; 0 means the default
}

// coins is u%5+1, or first at node 0 when set.
func (p drawProto) coins(u int) int {
	if u == 0 && p.first > 0 {
		return p.first
	}
	return u%5 + 1
}

func (p drawProto) New(NodeInfo) Process { return p }
func (drawProto) Start(*Context)         {}

func (p drawProto) Round(c *Context, _ []Message) {
	for i := 0; i < p.coins(c.node); i++ {
		p.drawn[c.node] = append(p.drawn[c.node], c.Rand().Int63())
	}
	c.Halt()
}

// TestNodeRandAcrossRunnerReuse: a Runner keeps its nodes' generators and
// only reseeds them, so a generator enters a run in the state the last one
// left it — node 0's with a built register after its 300 coins. Every run
// must still draw what a fresh rand.NewSource(NodeSeed(seed, u)) draws.
func TestNodeRandAcrossRunnerReuse(t *testing.T) {
	g := graph.Ring(12)
	r, err := NewRunner(g)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		seed  int64
		first int
	}{{3, 0}, {4, 300}, {3, 3}, {0, 300}, {0, 0}, {math.MinInt64, 3}}
	for _, run := range runs {
		seed := run.seed
		p := drawProto{drawn: make([][]int64, g.N()), first: run.first}
		if _, err := r.Run(Config{Seed: seed}, p); err != nil {
			t.Fatal(err)
		}
		for u, got := range p.drawn {
			want := rand.New(rand.NewSource(NodeSeed(seed, u)))
			if len(got) != p.coins(u) {
				t.Fatalf("seed %d node %d drew %d coins", seed, u, len(got))
			}
			for i, v := range got {
				if w := want.Int63(); v != w {
					t.Fatalf("seed %d node %d coin %d: %d, math/rand %d", seed, u, i, v, w)
				}
			}
		}
	}
}
