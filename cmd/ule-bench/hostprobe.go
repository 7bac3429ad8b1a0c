package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// hostProbe samples how fast this host is executing code right now. On a
// shared host the same instructions take up to twice as long from one
// minute to the next — the guest is running, so its CPU clock advances,
// but a neighbour has the core's other thread or the memory bus — and that
// swing is larger than any change the benchmark is meant to detect. The
// probe runs a fixed kernel of the benchmark's own (integer mixing over a
// buffer larger than L2) every probePeriod on a thread of its own and
// records the thread CPU time it took. Thread CPU time excludes waiting
// for a CPU, so the samples price the host, not the load the workload
// itself puts on the run queue.
type hostProbe struct {
	stop    chan struct{}
	done    sync.WaitGroup
	mu      sync.Mutex
	samples []float64 // thread CPU nanoseconds per kernel
}

const (
	probePeriod = 40 * time.Millisecond
	probeWords  = 1 << 20 // 8 MiB of uint64
	probeSteps  = 1 << 13
	// clockThreadCPU is CLOCK_THREAD_CPUTIME_ID, which package syscall
	// does not name. (getrusage(RUSAGE_THREAD) only advances at scheduler
	// ticks, too coarse for a millisecond kernel.)
	clockThreadCPU = 3
)

func startHostProbe() *hostProbe {
	p := &hostProbe{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		buf := make([]uint64, probeWords)
		for i := range buf {
			buf[i] = uint64(i) * 0x9e3779b97f4a7c15
		}
		tick := time.NewTicker(probePeriod)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			probeKernel(buf)
			d := threadCPU() - t0
			p.mu.Lock()
			p.samples = append(p.samples, d)
			p.mu.Unlock()
		}
	}()
	return p
}

// probeKernel is a chain of dependent loads and integer mixing: each step
// needs the previous one's result, so it can be neither vectorised nor
// overlapped, and it misses L2 about as often as the engine's inboxes do.
func probeKernel(buf []uint64) {
	x := buf[0] | 1
	for i := 0; i < probeSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (probeWords - 1)
		x += buf[j]
		buf[j] = x
	}
}

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec)*1e9 + float64(ts.Nsec)
}

// hostNominalNS is what the kernel costs on the host the workloads were
// sized on (2 vCPU of a 2.1 GHz Xeon microVM) while that host is quiet. It
// only fixes the scale: a reading is "as if the host had run at this
// speed", and readings from one host class compare whatever it is.
const hostNominalNS = 1.45e6

// mark returns the number of samples so far, to delimit a phase.
func (p *hostProbe) mark() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// factor is how much slower than the reference host this host ran between
// two marks: the median kernel cost of the samples taken there over the
// nominal cost. A phase too short for a sample gives 1.
func (p *hostProbe) factor(from, to int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if to <= from {
		return 1
	}
	return median(p.samples[from:to]) / hostNominalNS
}

func (p *hostProbe) close() {
	close(p.stop)
	p.done.Wait()
}
