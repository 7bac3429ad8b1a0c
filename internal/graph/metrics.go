// Distance metrics over the CSR core: scratch-based BFS, the exact
// diameter (all-pairs BFS fanned out over a worker pool), and the cheap
// iterated double-sweep estimate for graphs where all-pairs is
// prohibitive.
package graph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// bfsScratch is the reusable state of one BFS traversal: an int32
// distance array and a flat frontier buffer used as a FIFO (every node is
// enqueued at most once, so head/tail never wrap). One scratch serves any
// number of sequential traversals on graphs up to its size; the diameter
// workers own one each, and the package keeps a pool for the one-shot
// public entry points.
type bfsScratch struct {
	dist  []int32
	queue []int32
}

var scratchPool = sync.Pool{New: func() any { return new(bfsScratch) }}

// grow sizes the scratch for an n-node graph and resets distances.
func (s *bfsScratch) grow(n int) {
	if cap(s.dist) < n {
		s.dist = make([]int32, n)
		s.queue = make([]int32, n)
	}
	s.dist = s.dist[:n]
	s.queue = s.queue[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
}

// run traverses from src and returns the eccentricity, the highest-index
// farthest node, and the number of visited nodes (== n iff connected).
// The distance array is left populated for the caller.
func (s *bfsScratch) run(g *Graph, src int) (ecc int32, far int, visited int) {
	s.grow(g.N())
	dist, queue := s.dist, s.queue
	dist[src] = 0
	queue[0] = int32(src)
	head, tail := 0, 1
	far = src
	for head < tail {
		u := queue[head]
		head++
		du := dist[u]
		for i := g.off[u]; i < g.off[u+1]; i++ {
			v := g.nbr[i]
			if dist[v] < 0 {
				dist[v] = du + 1
				queue[tail] = v
				tail++
			}
		}
	}
	for v, d := range dist {
		if d >= ecc {
			ecc = d
			far = v
		}
	}
	return ecc, far, tail
}

// BFS returns the distance from src to every node (-1 if unreachable).
func (g *Graph) BFS(src int) []int {
	sc := scratchPool.Get().(*bfsScratch)
	sc.run(g, src)
	dist := make([]int, g.N())
	for i, d := range sc.dist {
		dist[i] = int(d)
	}
	scratchPool.Put(sc)
	return dist
}

// Connected reports whether the graph is connected (true for n==0, n==1).
func (g *Graph) Connected() bool {
	if g.N() <= 1 {
		return true
	}
	sc := scratchPool.Get().(*bfsScratch)
	_, _, visited := sc.run(g, 0)
	scratchPool.Put(sc)
	return visited == g.N()
}

// Eccentricity returns the largest BFS distance from u, or -1 if the graph
// is disconnected from u.
func (g *Graph) Eccentricity(u int) int {
	sc := scratchPool.Get().(*bfsScratch)
	ecc, _, visited := sc.run(g, u)
	scratchPool.Put(sc)
	if visited < g.N() {
		return -1
	}
	return int(ecc)
}

// DiameterExact returns the exact diameter (-1 if disconnected), computed
// by all-pairs BFS on first use and memoized thereafter
// (concurrency-safe). The first call fans the eccentricity sources out
// over a worker pool — the per-source maximum is reduced with max, which
// is order-independent, so the result is deterministic for every worker
// count; repeated calls — e.g. a sweep running many trials on one shared
// graph — are free.
func (g *Graph) DiameterExact() int {
	g.diamOnce.Do(func() { g.diam = g.diameterExact() })
	return g.diam
}

// diamChunk is the number of BFS sources a diameter worker claims at
// once; coarse enough that the shared counter never contends.
const diamChunk = 16

// diameterExact is the uncached all-pairs computation: the caller runs as
// worker 0 and starts the others, one per core up to one per diamChunk
// sources.
func (g *Graph) diameterExact() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	workers := min(runtime.GOMAXPROCS(0), max(n/diamChunk, 1))
	var (
		next   atomic.Int64
		wg     sync.WaitGroup
		maxEcc = make([]int32, workers)
		discon atomic.Bool
	)
	work := func(w int) {
		sc := scratchPool.Get().(*bfsScratch)
		defer scratchPool.Put(sc)
		for !discon.Load() {
			lo := int(next.Add(diamChunk)) - diamChunk
			if lo >= n {
				return
			}
			for u := lo; u < min(lo+diamChunk, n); u++ {
				ecc, _, visited := sc.run(g, u)
				if visited < n {
					discon.Store(true)
					return
				}
				maxEcc[w] = max(maxEcc[w], ecc)
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
	if discon.Load() {
		return -1
	}
	return int(slices.Max(maxEcc))
}

// estimateRestarts bounds the iterated double-sweep: the deterministic
// restart sample plus the improvement iterations per restart.
const (
	estimateRestarts = 4
	estimateIters    = 8
)

// DiameterEstimate returns a cheap certified lower bound on the diameter
// (-1 if disconnected), memoized like DiameterExact: an iterated double
// sweep — BFS from the farthest node found so far, repeated while the
// eccentricity improves — restarted from a small deterministic sample of
// sources. Every returned value is a real eccentricity, so the estimate
// never exceeds DiameterExact and is never below half of it (any
// eccentricity is at least the radius); on the families shipped here it
// is exact in practice. Cost: O(k·(n+m)) with k bounded by
// estimateRestarts·estimateIters — the option for sweeps on graphs where
// the all-pairs O(n·m) diameter is prohibitive (see Spec.DiameterEstimate
// in internal/harness and docs/SWEEP_SCHEMA.md).
func (g *Graph) DiameterEstimate() int {
	g.estOnce.Do(func() { g.est = g.diameterEstimate() })
	return g.est
}

func (g *Graph) diameterEstimate() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	sc := scratchPool.Get().(*bfsScratch)
	defer scratchPool.Put(sc)
	best := int32(0)
	for r := 0; r < estimateRestarts; r++ {
		start := r * n / estimateRestarts // deterministic sample certificate
		ecc, far, visited := sc.run(g, start)
		if visited < n {
			return -1
		}
		for iter := 0; iter < estimateIters; iter++ {
			e2, f2, _ := sc.run(g, far)
			if e2 <= ecc {
				break
			}
			ecc, far = e2, f2
		}
		if ecc > best {
			best = ecc
		}
	}
	return int(best)
}
