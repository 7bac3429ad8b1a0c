package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// userHZ is the unit of the utime/stime fields of /proc/<pid>/stat. The
// kernel ABI fixes it at 100 on every Linux architecture Go supports.
const userHZ = 100

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// cpuSeconds returns the user+system CPU time of this process (who =
// RUSAGE_SELF) or of its waited-for descendants (RUSAGE_CHILDREN).
func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

// statFields returns the fields of /proc/<pid>/stat that follow the
// parenthesised command name, so index 0 is the state (field 3 of proc(5)).
func statFields(pid int) ([]string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return nil, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	return strings.Fields(s[i+1:]), nil
}

// cpuSecondsOf returns the user+system CPU time of a live process.
func cpuSecondsOf(pid int) (float64, error) {
	f, err := statFields(pid)
	if err != nil {
		return 0, err
	}
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64) // field 14
	stime, err2 := strconv.ParseFloat(f[12], 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return (utime + stime) / userHZ, nil
}

// hwmMiB returns the peak resident set (VmHWM) of a live process in MiB;
// pid 0 means this process.
func hwmMiB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: %v", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// loadavg1 is the one-minute load average, or -1 when /proc has none.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(data))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// childPIDs lists the live direct children of this process by scanning
// /proc (the task/children file needs a kernel option that is not
// everywhere).
func childPIDs() []int {
	ents, err := os.ReadDir("/proc")
	if err != nil {
		return nil
	}
	self := strconv.Itoa(os.Getpid())
	var out []int
	for _, e := range ents {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		if f, err := statFields(pid); err == nil && len(f) > 1 && f[1] == self {
			out = append(out, pid)
		}
	}
	return out
}

// childRSSSampler polls the VmHWM of this process's children. fleet.Run
// owns its worker processes, so their peak memory is only visible from
// outside; RUSAGE_CHILDREN's ru_maxrss would also report the `go build`
// that produced the worker binary. VmHWM never falls, so the last sample
// before a worker exits is at most one period short of its true peak.
type childRSSSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak float64
}

func startChildRSSSampler(period time.Duration) *childRSSSampler {
	s := &childRSSSampler{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				for _, pid := range childPIDs() {
					if v, err := hwmMiB(pid); err == nil {
						s.mu.Lock()
						s.peak = max(s.peak, v)
						s.mu.Unlock()
					}
				}
			}
		}
	}()
	return s
}

// peakMiB is the largest VmHWM seen so far.
func (s *childRSSSampler) peakMiB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// close stops the sampler and waits for it.
func (s *childRSSSampler) close() {
	close(s.stop)
	s.done.Wait()
}
