package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkInboxOrder prices orderInbox per message on the rows its three
// branches exist for (`make bench-dense`; docs/PERFORMANCE.md § "The
// synchronous message path"): k messages, one per port, for a node of
// degree k — every neighbour spoke — and of degree 64·k — a hub that
// heard from a few — arriving in port order and shuffled. Each iteration
// orders a fresh copy of the row, so every row pays the same copy.
func BenchmarkInboxOrder(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{4, 16, 64} {
		for _, deg := range []int{k, 64 * k} {
			for _, arrival := range []string{"sorted", "shuffled"} {
				ports := rng.Perm(deg)[:k]
				if arrival == "sorted" {
					for i := range ports {
						ports[i] = i * (deg / k)
					}
				}
				arrived := make([]Message, k)
				for i, p := range ports {
					arrived[i] = Message{Port: p, Payload: tokenMsg{int64(i)}}
				}
				b.Run(fmt.Sprintf("k=%d/deg=%d/%s", k, deg, arrival), func(b *testing.B) {
					var o inboxOrder
					row := make([]Message, k)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						copy(row, arrived)
						o.orderInbox(row, deg)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(k), "ns/msg")
				})
			}
		}
	}
}
