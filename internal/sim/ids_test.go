package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"ule/internal/graph"
)

// refRandomIDs is RandomIDs as first written, over a space of n^4 capped
// at math.MaxInt64: a fresh slice and a fresh map[int64]bool filter per
// call.
func refRandomIDs(n int, rng *rand.Rand) []int64 {
	space := int64(math.MaxInt64)
	if n <= 55108 {
		space = int64(n) * int64(n) * int64(n) * int64(n)
	}
	ids := make([]int64, 0, n)
	seen := make(map[int64]bool, n)
	for len(ids) < n {
		if id := 1 + rng.Int63n(space); !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	return ids
}

// TestIDsIntoReuseBuffers pins the buffer-taking identity draws, on one
// buffer and one duplicate filter reused throughout, to plain draws of the
// same stream: PermutationIDsInto to rand.Perm shifted to 1..n, and
// RandomIDsInto to refRandomIDs, for every n up to 64 at 32 seeds — and
// at n = 65 536 (elect-dense's flood cell draws exactly these), whose n⁴
// is 2^64: the space saturates at math.MaxInt64 instead of wrapping.
func TestIDsIntoReuseBuffers(t *testing.T) {
	var ids []int64
	var seen graph.IDSet
	for n := 0; n <= 64; n++ {
		for seed := int64(1); seed <= 32; seed++ {
			perm := rand.New(rand.NewSource(seed)).Perm(n)
			ids = PermutationIDsInto(ids, n, rand.New(rand.NewSource(seed)))
			for i, p := range perm {
				if ids[i] != int64(p)+1 {
					t.Fatalf("PermutationIDsInto(n=%d, seed=%d) = %v, rand.Perm %v", n, seed, ids, perm)
				}
			}
			want := refRandomIDs(n, rand.New(rand.NewSource(seed)))
			if ids = RandomIDsInto(ids, &seen, n, rand.New(rand.NewSource(seed))); !slices.Equal(ids, want) {
				t.Fatalf("RandomIDsInto(n=%d, seed=%d) = %v, want %v", n, seed, ids, want)
			}
		}
	}
	want := refRandomIDs(65536, rand.New(rand.NewSource(1)))
	if ids = RandomIDsInto(ids, &seen, 65536, rand.New(rand.NewSource(1))); !slices.Equal(ids, want) {
		t.Error("RandomIDsInto(n=65536) differs from the plain draw")
	}
	if slices.Max(ids) <= 1<<60 {
		t.Errorf("RandomIDsInto(n=65536) drew at most %d: the space did not saturate", slices.Max(ids))
	}
}
