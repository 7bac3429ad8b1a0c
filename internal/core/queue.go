package core

import (
	"sort"

	"ule/internal/sim"
)

// portQueue drips queued payloads at a constant per-round rate per port,
// keeping streams CONGEST-compliant.
type portQueue struct {
	q map[int][]sim.Payload
}

func (pq *portQueue) push(port int, p sim.Payload) {
	pq.q[port] = append(pq.q[port], p)
}

func (pq *portQueue) flush(send func(int, sim.Payload), perRound int) {
	ports := make([]int, 0, len(pq.q))
	for p := range pq.q {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	for _, p := range ports {
		q := pq.q[p]
		k := perRound
		if k > len(q) {
			k = len(q)
		}
		for i := 0; i < k; i++ {
			send(p, q[i])
		}
		if k == len(q) {
			delete(pq.q, p)
		} else {
			pq.q[p] = q[k:]
		}
	}
}

func (pq *portQueue) empty() bool { return len(pq.q) == 0 }
