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
func RandomIDs(n int, rng *rand.Rand) []int64 {
	return RandomIDsInto(nil, make(map[int64]struct{}, n), n, rng)
}

// RandomIDsInto is RandomIDs written over ids, with seen — emptied first —
// as the duplicate filter, so a caller that keeps both draws without
// allocating.
func RandomIDsInto(ids []int64, seen map[int64]struct{}, n int, rng *rand.Rand) []int64 {
	clear(seen)
	space := int64(n) * int64(n) * int64(n) * int64(n)
	if space < int64(n) {
		space = int64(n) // the product wraps from n = 55 109 on
	}
	for ids = slices.Grow(ids[:0], n); len(ids) < n; {
		id := 1 + rng.Int63n(space)
		if _, dup := seen[id]; !dup {
			seen[id] = struct{}{}
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
