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
		WatchEdges: [][2]int{{0, 1}}, CountPerEdge: true,
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
// pooled boxes: the rebuild changed what the host pays per message, so
// everything the simulation reports must be what it was. It runs with the
// release hook poisoning every box on its way back to the pool, so a read
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
// entry in order, as the parent of the rebuild produced them.
var floodGolden = map[string][]uint64{
	"leastel":          {0xdf957afeacda3b05, 0x472ff176f260c5aa, 0xa8b40253223882e9, 0xcc192af341dfbd36, 0xe1b34f6a57b2de6f, 0xe6d41153d1ddd9a4, 0xbf65649fa76abb47, 0x465d33e51b85b4b7},
	"leastel-const":    {0x1327c1fb456021a, 0x3cd39f5a80d08a0d, 0x66018bbf9b8b885e, 0xcd058834eb4d576, 0xcd07a08c6f099471, 0xd479bab1dfda22c7, 0xe01e943ad09c7a41, 0xc5522acc3ba854},
	"leastel-loglog":   {0x636400219280b810, 0x3cd39f5a80d08a0d, 0x400da7a8377a189d, 0x99773565d250a31f, 0x8982beb8e76b86e6, 0x13ad5ed8a490630b, 0xff0b3234bf25377e, 0x3e26bb8cf81beb6e},
	"leastel-estimate": {0x1942fdba25803cc1, 0xe02ca6118d108365, 0x1ded27d116cf1e03, 0xc1481e31ecf12d07, 0x7b003bf7f3f9578d, 0x1262b7908176a21, 0x682a5bb77a903ddb, 0x68cc967a3f66b079},
	"lasvegas":         {0x70e9cc798cc45ff3, 0xef7e5b606822a55, 0x831bf1a0598c1051, 0x2e3d6ab645b769ad, 0xddf46c8e239bc248, 0xf12c0be24ad45853, 0xcbb21451d33df841, 0xa97bd0e6cc067829},
	"cluster":          {0xabec989b7a4177f0, 0x1c183d9cdbc4427c, 0xda2ef1da9496c581, 0x17346a1bca2e8a0, 0x1fbdd494324ec9ee, 0xa74e19533d6828fa, 0xa7eb88cbf7811bab, 0x31ca6181f10f727},
	"spanner-le":       {0x627a57649a64780d, 0xee5cad0825d2cb3d, 0xb4ae287f1528fb6f, 0x2b5ec15a7c30d07a, 0x6eeadd1dfc9ad403, 0x3e92e28ffba96818, 0x6b6b4b9ea1816aa4, 0x264cc46a8b96a2b4},
}
