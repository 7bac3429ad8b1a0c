// Lazily seeded node RNG.
//
// math/rand's seeded generator is an additive lagged-Fibonacci register of
// 607 words, and Seed fills all of them — 1841 steps of the Lehmer
// sequence x ← 48271·x mod (2³¹−1), about 10 µs — while a typical node
// draws a handful of coins and so reads a dozen words. The Lehmer sequence
// has a closed form, x_k = seed·48271^k mod (2³¹−1), and word i is built
// from x_{21+3i}, x_{22+3i} and x_{23+3i} alone, so any word can be
// computed on its own: one multiplication by a tabulated power to reach
// the first of the three, two Lehmer steps for the others. lazySource
// does that at a word's first read. Every value it returns is the one
// rand.NewSource(seed) would return at the same position, so protocols
// keep *rand.Rand and every coin of every run stays what it was.
package sim

import "math/rand"

// NewRand returns a generator that draws, value for value, what
// rand.New(rand.NewSource(seed)) would, without the 607-word fill: the
// seed stream for callers that draw a handful of values per seed (one ID
// permutation or wake schedule per trial). Reseed it with its Seed method
// to reuse the state words already allocated.
func NewRand(seed int64) *rand.Rand {
	src := new(lazySource)
	src.Seed(seed)
	return rand.New(src)
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	lehmerA  = 48271
)

// lehmerPow[i] is 48271^(21+3i) mod (2³¹−1): the multiplier that takes a
// seed to the first of the three Lehmer values behind word i.
var lehmerPow = func() (pow [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 21; k++ {
		x = x * lehmerA % int32max
	}
	const cube = lehmerA * lehmerA % int32max * lehmerA % int32max
	for i := range pow {
		pow[i] = x
		x = x * cube % int32max
	}
	return pow
}()

// lazySource is a rand.Source64 equal, value for value, to math/rand's
// seeded source, that computes each state word when it is first read. The
// register is held in chunks of 64 words allocated at the first read of
// one: the first dozen draws stay inside two of the ten (words 320–333 and
// 594–606), so a node that flips a few coins keeps 1.2 KB where the full
// register is 4.9 KB — on a 32768-node graph, 40 MB instead of 170.
type lazySource struct {
	chunk     [rngChunks]*[64]int64
	filled    [rngChunks]uint64 // bit j of filled[c]: chunk[c][j] holds word 64c+j
	seed      uint64            // the Lehmer sequence's x_0
	tap, feed int
}

const rngChunks = (rngLen + 63) / 64

// Seed re-arms the source exactly as math/rand's Seed does, minus the
// fill; the chunks are kept.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.filled = [rngChunks]uint64{}
}

// word returns state word i's slot, seeding it on first touch.
func (s *lazySource) word(i int) *int64 {
	c, bit := i>>6, uint64(1)<<(i&63)
	if s.chunk[c] == nil {
		s.chunk[c] = new([64]int64)
	}
	w := &s.chunk[c][i&63]
	if s.filled[c]&bit == 0 {
		s.filled[c] |= bit
		x := s.seed * lehmerPow[i] % int32max
		u := int64(x) << 40
		x = x * lehmerA % int32max
		u ^= int64(x) << 20
		x = x * lehmerA % int32max
		*w = u ^ int64(x) ^ rngCooked[i]
	}
	return w
}

func (s *lazySource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	f := s.word(s.feed)
	*f += *s.word(s.tap)
	return uint64(*f)
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
