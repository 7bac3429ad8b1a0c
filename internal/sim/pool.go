// Shard pool: the persistent workers behind multi-shard ticks.
//
// One pool is started per multi-shard run and reused for every tick, so
// the engine never spawns goroutines once the run is under way. A
// dispatch hands every worker a strided subset of the shard indices; a
// shard's tick writes only rows of its own node range (shard.go), so the
// workers share no mutable state and need no synchronization beyond the
// end-of-phase barrier.
//
// Both sides of that barrier poll before they block. Dense ticks follow
// one another within microseconds, while waking a parked thread costs
// tens of them (more on a virtual CPU that has gone idle): a worker that
// blocked on its channel after every phase would spend most of a
// sub-millisecond tick being woken up.
package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBudget is how long a worker polls for its next job, and the
// dispatcher for the workers' completion, before blocking. It bounds the
// CPU a barrier can burn on an unbalanced or isolated tick.
const spinBudget = 50 * time.Microsecond

// shardPool runs per-shard jobs on workers-1 persistent goroutines plus
// the calling goroutine.
type shardPool struct {
	jobs []chan shardJob // one per worker goroutine
	wg   sync.WaitGroup  // the blocking barrier (reused: no per-call allocation)
	left atomic.Int32    // workers still inside the dispatch in flight: the polled barrier
	// blocked: the dispatcher gave up polling and sleeps on wg.
	blocked atomic.Bool
}

// shardJob is one worker's share of a dispatch: fn(i) for i = first,
// first+stride, ... below count.
type shardJob struct {
	first, count, stride int
	fn                   func(i int)
}

func newShardPool(workers int) *shardPool {
	p := new(shardPool)
	for w := 1; w < workers; w++ {
		ch := make(chan shardJob, 1)
		p.jobs = append(p.jobs, ch)
		go p.work(ch)
	}
	return p
}

func (p *shardPool) work(ch chan shardJob) {
	for {
		j, ok := pollJob(ch)
		if !ok {
			return
		}
		for i := j.first; i < j.count; i += j.stride {
			j.fn(i)
		}
		// wg first: a dispatcher that polls left down to zero must find
		// the WaitGroup already released.
		p.wg.Done()
		p.left.Add(-1)
		if p.blocked.Load() {
			// Done made the dispatcher runnable on this P: polling for
			// the next job now would keep it from running. (Only then: a
			// yield after every job costs mid-sized ticks a third.)
			runtime.Gosched()
		}
	}
}

// pollJob receives the next job (ok=false once the pool is closed),
// polling the channel for spinBudget before it blocks on it.
func pollJob(ch chan shardJob) (j shardJob, ok bool) {
	for start, spin := time.Now(), 1; ; spin++ {
		select {
		case j, ok = <-ch:
			return j, ok
		default:
		}
		if spin%256 == 0 {
			if time.Since(start) > spinBudget {
				j, ok = <-ch
				return j, ok
			}
			runtime.Gosched()
		}
	}
}

// close releases the pool's goroutines; the engine closes exactly once
// per run, after the last dispatch has returned.
func (p *shardPool) close() {
	for _, ch := range p.jobs {
		close(ch)
	}
}

// runEach calls fn(i) for every i in [0, count), striding the indices
// round-robin across the pool, and returns when all calls have. count is
// small and each call is heavy — a whole shard's tick — so every index
// deserves its own worker. The reused WaitGroup and caller-owned fn keep
// the per-call allocation at zero.
func (p *shardPool) runEach(count int, fn func(i int)) {
	k := min(len(p.jobs)+1, count)
	p.left.Store(int32(k - 1))
	p.wg.Add(k - 1)
	for w := 1; w < k; w++ {
		p.jobs[w-1] <- shardJob{first: w, count: count, stride: k, fn: fn}
	}
	for i := 0; i < count; i += k {
		fn(i)
	}
	for start, spin := time.Now(), 1; p.left.Load() != 0; spin++ {
		if spin%1024 == 0 {
			if time.Since(start) > spinBudget {
				// Sleep until the workers are done; the loop then only
				// waits out the last one's step from Done to left.
				p.blocked.Store(true)
				p.wg.Wait()
				p.blocked.Store(false)
			}
			// A worker that was parked is runnable on this P since the
			// send woke it; let it run rather than wait out the budget.
			runtime.Gosched()
		}
	}
	p.wg.Wait() // every Done precedes its left decrement, so this returns at once
}
