package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refRandomIDs is RandomIDs as first written: a fresh slice and a fresh
// map[int64]bool filter per call.
func refRandomIDs(n int, rng *rand.Rand) []int64 {
	space := int64(n) * int64(n) * int64(n) * int64(n)
	if space < int64(n) {
		space = int64(n)
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
// at n = 65 536, where n⁴ has wrapped to 0 and the guard draws from [1, n]
// (elect-dense's flood cell draws exactly these).
func TestIDsIntoReuseBuffers(t *testing.T) {
	var ids []int64
	var seen IDSet
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
}

// TestIDSetMatchesMap holds the flat duplicate filter to a map on one
// reused set: batches of up to n identifiers drawn from a narrow range
// (so that many repeat) with 0, negatives and the int64 extremes among
// them, each batch after a Reset to its own n, growing and shrinking.
func TestIDSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var s IDSet
	for _, n := range []int{0, 1, 3, 64, 5000, 17, 70000, 2, 1000} {
		s.Reset(n)
		seen := make(map[int64]bool)
		for len(seen) < n {
			var id int64
			switch rng.Intn(8) {
			case 0:
				id = []int64{0, -1, math.MinInt64, math.MaxInt64}[rng.Intn(4)]
			default:
				id = rng.Int63n(int64(2*n)) - int64(n/2)
			}
			if got := s.Add(id); got == seen[id] {
				t.Fatalf("n=%d: Add(%d) = %v with %d already seen: %v", n, id, got, id, seen[id])
			}
			seen[id] = true
		}
	}
}
