package election

import "testing"

// TestParallelShim pins the deprecated Parallel flag to the Shards value
// it maps onto. Results are identical at every shard count, so only the
// resolved options can tell the mapping apart (TestParamShimEquivalence,
// in the external test package, pins the model shims by their results).
func TestParallelShim(t *testing.T) {
	for _, c := range []struct {
		p    Params
		want int
	}{
		{Params{}, 0},
		{Params{Parallel: true}, -1},
		{Params{Parallel: true, Shards: 1}, 1}, // an explicit count wins
		{Params{Parallel: true, Shards: 3}, 3},
		{Params{Shards: -1}, -1},
	} {
		ro, err := c.p.runOpts()
		if err != nil {
			t.Fatalf("%+v: %v", c.p, err)
		}
		if ro.Shards != c.want {
			t.Errorf("%+v resolves to Shards %d, want %d", c.p, ro.Shards, c.want)
		}
	}
}
