package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"ule/internal/graph"
	"ule/internal/sim"
)

// floodFamily lists the seven registry entries that run the Theorem 4.4
// flood machine of flooder.go.
var floodFamily = []string{
	"leastel", "leastel-const", "leastel-loglog", "leastel-estimate",
	"lasvegas", "cluster", "spanner-le",
}

// floodCell is one election of the flood-family golden battery.
type floodCell struct {
	graph, model string
	oneAwake     bool // only node 0 wakes by schedule
	anonymous    bool
	shards       int
}

func (c floodCell) String() string {
	return fmt.Sprintf("%s/%s/oneAwake=%v/anon=%v/shards=%d", c.graph, c.model, c.oneAwake, c.anonymous, c.shards)
}

// floodCells covers what the flood's data path can tell apart: bursts above
// flushRate (star, complete), long echo chains (ring), adoption lists of
// several entries (torus, random), every mode, a non-FIFO delay adversary,
// link drops and crashes (boxes that are never decoded), the adversarial
// wake-up, anonymous origins, and boxes that cross shards.
var floodCells = []floodCell{
	{graph: "torus:8x8", model: "congest", shards: 1},
	{graph: "torus:8x8", model: "local", oneAwake: true, shards: 1},
	{graph: "star:24", model: "congest", shards: 1},
	{graph: "complete:12", model: "congest", anonymous: true, shards: 1},
	{graph: "ring:32", model: "async+random:8", oneAwake: true, shards: 1},
	{graph: "random:48:160", model: "async+random:4", shards: 3},
	{graph: "random:48:160", model: "congest+crash:0.1+drop:0.05", shards: 1},
	{graph: "ring:32", model: "async+fifo:3+crashrec:0.1:5", anonymous: true, shards: 2},
}

// oneAwake is the adversarial wake-up: node 0 wakes by schedule, every
// other node on its first message.
func oneAwake(n int) []int {
	wake := make([]int, n)
	for i := range wake {
		wake[i] = sim.WakeOnMessage
	}
	wake[0] = 1
	return wake
}

// floodGoldenHash runs one cell and hashes every field of its result.
func floodGoldenHash(t *testing.T, algo string, c floodCell) uint64 {
	t.Helper()
	g, err := graph.FromSpec(c.graph, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sim.ParseModel(c.model)
	if err != nil {
		t.Fatal(err)
	}
	ro := RunOpts{
		Seed: 17, Model: m, MaxRounds: 1 << 12, Shards: c.shards, Anonymous: c.anonymous,
		WatchEdges: [][2]int{{0, 1}},
	}
	if c.oneAwake {
		ro.Wake = oneAwake(g.N())
	}
	res, err := Run(g, algo, ro)
	if err != nil {
		t.Fatalf("%s %v: %v", algo, c, err)
	}
	h := fnv.New64a()
	h.Write([]byte(shardResultBytes(t, res)))
	return h.Sum64()
}

// TestFloodGolden pins one transcript per flood-family algorithm and cell,
// taken before the flood's data path was rebuilt around in-place reads of
// reused boxes: the rebuild changed what the host pays per message, so
// everything the simulation reports must be what it was. It runs with the
// release hook poisoning every box as its reader releases it, so a read
// after release adopts an impossible rank and moves a hash instead of
// hiding behind a value that happens to be still there.
func TestFloodGolden(t *testing.T) {
	rc := poisonReleases(t)
	for _, algo := range floodFamily {
		want := floodGolden[algo]
		if len(want) != len(floodCells) {
			t.Fatalf("%s: %d golden hashes for %d cells", algo, len(want), len(floodCells))
		}
		for i, c := range floodCells {
			if got := floodGoldenHash(t, algo, c); got != want[i] {
				t.Errorf("%s %v: result hash %#x, want %#x", algo, c, got, want[i])
			}
		}
	}
	if rc.puts.Load() == 0 || rc.doubles.Load() != 0 {
		t.Errorf("%d boxes released, %d of them twice", rc.puts.Load(), rc.doubles.Load())
	}
}

// floodGolden holds, per algorithm, the result hash of each floodCells
// entry in order, as the parent of the rebuild produced them. The hashes
// were re-taken in resultBytes' present form when Result lost its per-edge
// counts and its largest message size, at the commit before that change,
// where the old ones held.
var floodGolden = map[string][]uint64{
	"leastel":          {0x55d83ad8b7b53800, 0xce13a9564d84d551, 0x5d13a1af07ae0e36, 0x7f109abd2208550e, 0x7861409495d99fcb, 0xed33aa4816443567, 0x3085efe610faab72, 0x2ed1e83255b7f6c7},
	"leastel-const":    {0x4a337920bd78196d, 0xf462b006486b2d9d, 0x16cf0d13cdec1c1c, 0x50b2ab003a2d9e21, 0x65115583f103c2ed, 0xf1bb1df5459227ac, 0xfd16827af5a35a59, 0x80562f5bcdd0767},
	"leastel-loglog":   {0x85b893259df39293, 0xf462b006486b2d9d, 0xa52f105b4a60a7d7, 0xeeb8bee827ece888, 0x70cacd5ff75e748c, 0xb09584f9bcd9eff6, 0xf6ec7a4a3879518c, 0xd7b4b02894ed478d},
	"leastel-estimate": {0x70c3d7c8386f4f3a, 0x22f6328a698f57d9, 0x667e4ba08c7622c, 0xd083831922bca245, 0xcbc34183f32cd902, 0x9348fd4be9f9553a, 0x38da7b625f4f7bc, 0x183c757da152c4f2},
	"lasvegas":         {0x51d8e15ece68b5e5, 0x9057803abfc90391, 0xa4c9e77b16b8035a, 0xc5bd1d751b09d611, 0x322f9d2ee32455aa, 0x8f337403218b4ad2, 0xf5097e5fde06a6c0, 0x84015dab4887a5c1},
	"cluster":          {0xc817f4106bd55954, 0xe082fb0f9add5833, 0x4a3a955e99e33bba, 0x86c5878ec56aaf11, 0xf70329af0085db9a, 0xca526d85616fe5f5, 0x8c38918102da5143, 0x516dc07e0ad10a9d},
	"spanner-le":       {0xaca53ac3cd9ecebe, 0x4f911e80754de758, 0xb50429999b9ad749, 0x63c4b1dbfefbee40, 0x234ae6964ab91a00, 0xec8c68d39cf47b97, 0xbc4652b4ff651798, 0xd4fa8b525d1a3127},
}
