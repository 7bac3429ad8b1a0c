package sim

import (
	"fmt"
	"math"
	"testing"

	"ule/internal/graph"
)

// bounceProto keeps one token bouncing between each scheduled node and
// its port-0 neighbor, forever: per pair, every tick delivers one message
// and steps two awake nodes — three units of due work.
type bounceProto struct{}

func (bounceProto) New(NodeInfo) Process { return bounceProc{} }

type bounceProc struct{}

func (bounceProc) Start(c *Context) {
	if c.SpontaneousWake() {
		c.Send(0, tokenMsg{1})
	}
}

func (bounceProc) Round(c *Context, in []Message) {
	if len(in) > 0 {
		c.Send(in[0].Port, tokenMsg{1})
	}
}

// BenchmarkTickDispatch is how minPooledWork was chosen (see
// docs/PERFORMANCE.md, "Sharded engine scaling"): W/3 tokens bounce in
// place on ring:16384 split into two shards, so every tick holds W units
// of due work, and the same run is timed with every tick inline and with
// every tick on the pool. The threshold belongs where the two ns/tick
// columns cross.
func BenchmarkTickDispatch(b *testing.B) {
	const n, ticks = 1 << 14, 4096
	g := graph.Ring(n)
	defer func(old int) { minPooledWork = old }(minPooledWork)
	for _, work := range []int{48, 96, 192, 384, 768, 1536, 3072, 12288} {
		pairs := work / 3
		wake := make([]int, n)
		for u := range wake {
			wake[u] = WakeOnMessage
		}
		for k := 0; k < pairs; k++ {
			wake[k*(n/pairs)] = 1
		}
		for _, route := range []struct {
			name  string
			floor int
		}{{"inline", math.MaxInt}, {"pooled", 0}} {
			b.Run(fmt.Sprintf("work=%d/%s", work, route.name), func(b *testing.B) {
				minPooledWork = route.floor
				r, err := NewRunner(g)
				if err != nil {
					b.Fatal(err)
				}
				var res Result
				cfg := Config{Wake: wake, MaxRounds: ticks, Shards: 2}
				for i := 0; i < b.N; i++ {
					if err := r.RunInto(cfg, bounceProto{}, &res); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/ticks, "ns/tick")
			})
		}
	}
}

// haltProto is the emptiest run there is: every node halts as it wakes.
type haltProto struct{}

func (haltProto) New(NodeInfo) Process { return haltProc{} }

type haltProc struct{}

func (haltProc) Start(c *Context)          { c.Halt() }
func (haltProc) Round(*Context, []Message) {}

// BenchmarkShardPoolLifecycle is the measurement behind "a Runner needs no
// Close" (docs/ARCHITECTURE.md § "Sharded execution"): what starting and
// closing the shard pool costs a run, against the shortest run that ever
// starts one by default — 8 192 nodes is the smallest graph the engine
// shards on its own, and a run on it in which every node halts as it
// wakes does nothing but the per-run reset and one tick. Meaningful at
// -cpu 2 and up; on one core no run starts a pool.
func BenchmarkShardPoolLifecycle(b *testing.B) {
	b.Run("pool", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			newShardPool(2).close()
		}
	})
	b.Run("emptiest-run", func(b *testing.B) {
		r, err := NewRunner(graph.Ring(2 * minNodesPerShard))
		if err != nil {
			b.Fatal(err)
		}
		var res Result
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := r.RunInto(Config{}, haltProto{}, &res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
