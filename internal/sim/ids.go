package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"ule/internal/graph"
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

// IDSpace returns n^4, the size of the paper's polynomial ID space Z,
// saturated at math.MaxInt64: n^4 leaves int64 at n = 55 109, and the
// wrapped product (0 at n = 65 536) would shrink the space exactly where
// it should be largest.
func IDSpace(n int) int64 {
	if n > math.MaxInt32 {
		return math.MaxInt64
	}
	sq := int64(n) * int64(n)
	if sq > 1 && sq > math.MaxInt64/sq {
		return math.MaxInt64
	}
	return sq * sq
}

// RandomIDs draws n distinct identifiers uniformly from [1, IDSpace(n)],
// the adversarially-chosen polynomial ID space Z of the paper (|Z| = n^4,
// capped at math.MaxInt64 from n = 55 109 on).
func RandomIDs(n int, rng *rand.Rand) []int64 {
	return RandomIDsInto(nil, new(graph.IDSet), n, rng)
}

// RandomIDsInto is RandomIDs written over ids, with seen — reset first —
// as the duplicate filter, so a caller that keeps both draws without
// allocating.
func RandomIDsInto(ids []int64, seen *graph.IDSet, n int, rng *rand.Rand) []int64 {
	seen.Reset(n)
	space := IDSpace(n)
	for ids = slices.Grow(ids[:0], n); len(ids) < n; {
		if id := 1 + rng.Int63n(space); seen.Add(id) {
			ids = append(ids, id)
		}
	}
	return ids
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
