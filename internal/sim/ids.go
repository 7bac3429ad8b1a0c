package sim

import (
	"math/bits"
	"math/rand"
	"slices"
)

// BitsFor returns the number of bits charged for transmitting the integer v
// in a CONGEST payload (at least 1).
func BitsFor(v int64) int {
	if v < 0 {
		v = -v
	}
	n := bits.Len64(uint64(v))
	if n == 0 {
		return 1
	}
	return n
}

// RandomIDs draws n distinct identifiers uniformly from [1, n^4], the
// adversarially-chosen polynomial ID space Z of the paper (|Z| = n^4).
// Past n = 55 108, n^4 overflows an int64: the draw is then from [1, n^4
// mod 2^64] read as a signed value, or from [1, n] when that is below n —
// n = 65 536, whose n^4 is 2^64, draws from [1, 65 536].
func RandomIDs(n int, rng *rand.Rand) []int64 {
	return RandomIDsInto(nil, new(IDSet), n, rng)
}

// RandomIDsInto is RandomIDs written over ids, with seen — reset first —
// as the duplicate filter, so a caller that keeps both draws without
// allocating.
func RandomIDsInto(ids []int64, seen *IDSet, n int, rng *rand.Rand) []int64 {
	seen.Reset(n)
	space := int64(n) * int64(n) * int64(n) * int64(n)
	if space < int64(n) {
		space = int64(n) // the product wraps from n = 55 109 on
	}
	for ids = slices.Grow(ids[:0], n); len(ids) < n; {
		if id := 1 + rng.Int63n(space); seen.Add(id) {
			ids = append(ids, id)
		}
	}
	return ids
}

// IDSet is a duplicate filter for up to n identifiers, the one behind
// RandomIDsInto and the engine's ID validation: open addressing with
// linear probing in a power-of-two table of at least 2n slots, where 0
// marks a free slot and the identifier 0, which a caller may assign, has
// a flag of its own. Reset sizes it before the first Add.
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

// PermutationIDs assigns the identifiers 1..n in random order. Useful for
// the Theorem 4.1 algorithm, whose running time is exponential in the
// smallest ID value.
func PermutationIDs(n int, rng *rand.Rand) []int64 {
	return PermutationIDsInto(nil, n, rng)
}

// PermutationIDsInto is PermutationIDs written over ids: rand.Perm's draws
// in rand.Perm's order, shuffled in place.
func PermutationIDsInto(ids []int64, n int, rng *rand.Rand) []int64 {
	ids = slices.Grow(ids[:0], n)[:n]
	for i := range ids {
		j := rng.Intn(i + 1)
		ids[i] = ids[j]
		ids[j] = int64(i) + 1
	}
	return ids
}

// SequentialIDs assigns node u the identifier base+u — an adversarial
// sorted assignment.
func SequentialIDs(n int, base int64) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = base + int64(i)
	}
	return ids
}
