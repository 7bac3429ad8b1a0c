// Lazily seeded node RNG.
//
// math/rand's seeded generator is an additive lagged-Fibonacci register of
// 607 words, and Seed fills all of them — 1841 steps of the Lehmer
// sequence x ← 48271·x mod (2³¹−1), about 10 µs — while a typical node
// draws a handful of coins. Draw k adds word 607−k into word 334−k and
// returns the sum; for k ≤ 273 neither word was written by an earlier draw,
// so the draw is the sum of two words exactly as Seed left them. The Lehmer
// sequence has a closed form, x_k = seed·48271^k mod (2³¹−1), and word i is
// built from x_{21+3i}, x_{22+3i} and x_{23+3i} alone, so such a word
// costs one multiplication by a tabulated power and two Lehmer steps, and
// the first 273 draws need no register at all. The 274th draw is the first
// to read a fed-back word: lazySource then builds the register once — the
// 607 seeded words, then the 273 sums the earlier draws wrote — and from
// there steps it as math/rand does. Every value it returns is the one
// rand.NewSource(seed) would return at the same position, so protocols
// keep *rand.Rand and every coin of every run stays what it was.
package sim

import "math/rand"

// NewRand returns a generator that draws, value for value, what
// rand.New(rand.NewSource(seed)) would, without the 607-word fill: the
// seed stream for callers that draw a handful of values per seed (one ID
// permutation or wake schedule per trial). Reseed it with its Seed method
// to reuse the register of a generator that drew past 273 values.
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
// seeded source. Until full, it has made drawn ≤ 273 draws and reads no
// register; vec, allocated by the first draw past 273, is kept across Seed.
type lazySource struct {
	seed      uint64 // the Lehmer sequence's x_0
	drawn     int
	vec       *[rngLen]int64
	full      bool // vec is the register; tap and feed index it
	tap, feed int
}

// Seed re-arms the source exactly as math/rand's Seed does, minus the fill:
// the seed reduced into [0, 2³¹−1), zero replaced.
func (s *lazySource) Seed(seed int64) {
	if seed = (seed%int32max + int32max) % int32max; seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.drawn, s.full = 0, false
}

// word0 returns state word i as math/rand's Seed leaves it.
func (s *lazySource) word0(i int) int64 {
	x0 := s.seed * lehmerPow[i] % int32max
	x1 := x0 * lehmerA % int32max
	x2 := x1 * lehmerA % int32max
	return int64(x0)<<40 ^ int64(x1)<<20 ^ int64(x2) ^ rngCooked[i]
}

func (s *lazySource) Uint64() uint64 {
	if !s.full {
		if s.drawn < rngTap { // draw k reads words 334−k and 607−k, both unwritten
			s.drawn++
			return uint64(s.word0(rngLen-rngTap-s.drawn) + s.word0(rngLen-s.drawn))
		}
		// Build the register as the 273 draws so far left it.
		if s.vec == nil {
			s.vec = new([rngLen]int64)
		}
		for i := range s.vec {
			s.vec[i] = s.word0(i)
		}
		for k := 1; k <= rngTap; k++ {
			s.vec[rngLen-rngTap-k] += s.vec[rngLen-k]
		}
		s.tap, s.feed, s.full = rngLen-rngTap, rngLen-2*rngTap, true
	}
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	s.vec[s.feed] += s.vec[s.tap]
	return uint64(s.vec[s.feed])
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }
