package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// setupReps is how often a run sets up: setup_s is the median, so one
// slow page-cache miss or scheduler hiccup does not become the reading.
const setupReps = 3

// workload is one of the five benchmark workloads. The driver in runOne
// calls setUp setupReps times (tearDown between), then step in a loop for
// the measured window, then verify, then — traced pass only — probes.
type workload interface {
	// build compiles the programs under test the workload spawns. It runs
	// once, before the first set-up, and is not part of setup_s.
	build(c *runCtx) error
	// setUp builds everything the first measured operation needs.
	setUp(c *runCtx, op int) error
	// tearDown releases what setUp built; stop is false between set-up
	// repetitions and true at the end of the run.
	tearDown(c *runCtx, stop bool) error
	// step runs iteration i of the measured loop on input k and returns
	// how many elections it completed. It records each operation's latency
	// with c.latency and each verdict with c.check.
	step(c *runCtx, i, k, op int) (elections int, err error)
	// busyCPU returns the CPU seconds consumed so far by the processes
	// doing the work, and peakRSS their largest VmHWM in MiB.
	busyCPU(c *runCtx) float64
	peakRSS(c *runCtx) float64
	// verify checks outputs after the window (counted into attempted/failed).
	verify(c *runCtx) error
	// probes measures the per-layer metrics that are not spans of the
	// measured loop. Traced pass only.
	probes(c *runCtx) error
}

// sizes scales a workload. full is what BENCHMARK.json measures; the
// tests run smoke, about 1/100 of it, through the same code.
type sizes struct {
	// elect-*: torus sides, random-graph nodes, ring nodes.
	TorusA  int `json:"torus_a"`
	TorusB  int `json:"torus_b"`
	TorusC  int `json:"torus_c"`
	RandomN int `json:"random_n"`
	RingN   int `json:"ring_n"`
	// sweep-small, fleet-small: repetitions per cell (54 cells).
	SweepTrials int `json:"sweep_trials"`
	// serve-mix: warm-up requests and slice length of the closed loop.
	WarmRequests int           `json:"warm_requests"`
	Slice        time.Duration `json:"slice_ns"`
	// Probes: repetitions of the microsecond-scale ones, rounds of the
	// all-neighbour flood.
	ProbeReps   int `json:"probe_reps"`
	FloodRounds int `json:"flood_rounds"`
}

var fullSizes = sizes{
	TorusA: 128, TorusB: 96, TorusC: 64, RandomN: 65536, RingN: 32768,
	SweepTrials: 300, WarmRequests: 2000, Slice: 500 * time.Millisecond,
	ProbeReps: 1000, FloodRounds: 16,
}

var smokeSizes = sizes{
	TorusA: 12, TorusB: 10, TorusC: 6, RandomN: 640, RingN: 320,
	SweepTrials: 3, WarmRequests: 20, Slice: 50 * time.Millisecond,
	ProbeReps: 10, FloodRounds: 4,
}

// runCtx is the state of one run of one workload.
type runCtx struct {
	name    string
	seed    int64
	seconds float64
	traced  bool
	sz      sizes
	tr      *tracer
	root    string // checkout root
	dir     string // scratch directory of this run, inside the checkout

	attempted, failed int
	latencies         []float64 // ms, one per operation of the window
	notes             []string  // why operations failed

	layer  map[string]float64 // per-layer metrics gathered so far
	counts map[string]int64   // exact simulated counts and sizes
	hashes map[string]string  // SHA-256 of outputs
}

func (c *runCtx) latency(d time.Duration) { c.latencies = append(c.latencies, d.Seconds()*1e3) }

// check counts one verified operation; a false ok is a failure.
func (c *runCtx) check(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.failed++
		if len(c.notes) < 8 {
			c.notes = append(c.notes, fmt.Sprintf(format, args...))
		}
	}
}

// result is what a run reports: the contract's last line plus the detail
// the all-workloads record keeps.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail is printed on the line before the result, for the record and for
// the traced-versus-untraced count check.
type detail struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Traced   bool              `json:"traced"`
	Samples  int               `json:"latency_samples"`
	Counts   map[string]int64  `json:"counts"`
	Hashes   map[string]string `json:"hashes"`
	Notes    []string          `json:"notes,omitempty"`
	// HostFactor is how much slower than the reference host this host ran
	// during the window (see hostProbe); Raw holds the end-to-end readings
	// before they were scaled by it.
	HostFactor float64            `json:"host_factor"`
	Raw        map[string]float64 `json:"raw,omitempty"`
	// PerSecond is the raw elections per second of every iteration of the
	// window, in order: the samples elections_per_s is the median of.
	PerSecond []float64 `json:"iteration_elections_per_s"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "elect-dense":
		return &electWorkload{dense: true}, nil
	case "elect-sparse":
		return &electWorkload{}, nil
	case "sweep-small":
		return &sweepWorkload{}, nil
	case "fleet-small":
		return &sweepWorkload{fleet: true}, nil
	case "serve-mix":
		return &serveWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// runOne runs one workload once and returns its result and detail.
func runOne(c *runCtx) (*result, *detail, error) {
	w, err := newWorkload(c.name)
	if err != nil {
		return nil, nil, err
	}
	c.tr = newTracer()
	c.layer = map[string]float64{}
	c.counts = map[string]int64{}
	c.hashes = map[string]string{}
	c.layer["bench.loadavg_start"] = loadavg1()

	if err := os.MkdirAll(filepath.Join(c.root, buildDir), 0o755); err != nil {
		return nil, nil, err
	}
	c.dir, err = os.MkdirTemp(filepath.Join(c.root, buildDir), c.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(c.dir)

	if err := w.build(c); err != nil {
		return nil, nil, err
	}
	// Whatever goes wrong from here on, what set-up started is stopped.
	stopped := false
	defer func() {
		if !stopped {
			w.tearDown(c, true)
		}
	}()

	probe := startHostProbe()
	defer probe.close()

	// Set-up, several times; the state of the last one is measured.
	var setups, setupsRaw []float64
	for r := 0; r < setupReps; r++ {
		c.tr.setOn(c.traced)
		m0 := probe.mark()
		t0 := time.Now()
		id := c.tr.begin("bench.setup", noSpan, r)
		err := w.setUp(c, r)
		c.tr.end(id)
		d := time.Since(t0).Seconds()
		setupsRaw = append(setupsRaw, d)
		setups = append(setups, d/probe.factor(m0, probe.mark()))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if r < setupReps-1 {
			if err := w.tearDown(c, false); err != nil {
				return nil, nil, fmt.Errorf("tear-down: %w", err)
			}
			runtime.GC()
		}
	}

	// The measured window. Every iteration is timed on its own (wall and
	// CPU), and the rates reported are medians over the iterations: on a
	// shared host interference comes in bursts, and a burst that lands in
	// one iteration should cost one sample, not move the mean.
	//
	// A traced pass traces every other iteration and gives each traced
	// iteration the input of the untraced one before it, so the same run
	// prices the tracing: time per election of the traced iterations over
	// that of the untraced ones. It runs at least one of each, however
	// slow the host.
	var perSec, cpuPer, perOn, perOff []float64
	m0 := probe.mark()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < c.seconds || (c.traced && i < 2); i++ {
		on, k := false, i
		if c.traced {
			on, k = i%2 == 1, i/2
		}
		c.tr.setOn(on)
		cpu0, t0 := w.busyCPU(c), time.Now()
		n, err := w.step(c, i, k, setupReps+i)
		if err != nil {
			return nil, nil, fmt.Errorf("iteration %d: %w", i, err)
		}
		if n == 0 {
			continue
		}
		wall, cpu := time.Since(t0).Seconds(), w.busyCPU(c)-cpu0
		perSec = append(perSec, float64(n)/wall)
		cpuPer = append(cpuPer, cpu*1e3/float64(n))
		if on {
			perOn = append(perOn, wall/float64(n))
		} else {
			perOff = append(perOff, wall/float64(n))
		}
	}
	wall := time.Since(start).Seconds()
	factor := probe.factor(m0, probe.mark())
	c.tr.setOn(c.traced)

	if err := w.verify(c); err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}
	if c.traced {
		if err := w.probes(c); err != nil {
			return nil, nil, fmt.Errorf("probes: %w", err)
		}
	}
	rss := w.peakRSS(c)
	stopped = true
	if err := w.tearDown(c, true); err != nil {
		c.check(false, "tear-down: %v", err)
	}
	if len(perSec) == 0 {
		return nil, nil, fmt.Errorf("no election completed in %.1f s", wall)
	}

	res := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: map[string]metricValue{}}
	var raw map[string]float64
	if c.traced {
		for layer, ns := range selfByLayer(c.windowSpans()) {
			c.layer[layer+".self_ms"] = float64(ns) / 1e6
		}
		if o, ok := w.(interface{ traceOverhead() float64 }); ok {
			c.layer["bench.trace_overhead_frac"] = o.traceOverhead()
		} else if len(perOn) > 0 && len(perOff) > 0 {
			c.layer["bench.trace_overhead_frac"] = median(perOn)/median(perOff) - 1
		}
		c.layer["bench.host_factor"] = factor
		c.layer["bench.latency_samples"] = float64(len(c.latencies))
		c.layer["bench.resolved_percentile"] = resolvedPercentile(len(c.latencies))
		for _, d := range perLayerDefs {
			res.Metrics[d.Name] = metricValue{c.layer[d.Name], d.Unit}
		}
	} else {
		// Times are stated in reference-host time: divided by the factor
		// the host ran slow by while they were taken (rates multiplied).
		raw = map[string]float64{
			"setup_s":             median(setupsRaw),
			"elections_per_s":     median(perSec),
			"latency_p50_ms":      percentile(c.latencies, 50),
			"latency_tail_ms":     tailLatency(c.latencies),
			"cpu_ms_per_election": median(cpuPer),
			"peak_rss_mib":        rss,
		}
		e2e := map[string]float64{
			"setup_s":             median(setups),
			"elections_per_s":     raw["elections_per_s"] * factor,
			"latency_p50_ms":      raw["latency_p50_ms"] / factor,
			"latency_tail_ms":     raw["latency_tail_ms"] / factor,
			"cpu_ms_per_election": raw["cpu_ms_per_election"] / factor,
			"peak_rss_mib":        rss,
		}
		for _, d := range endToEndDefs {
			res.Metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
		}
	}
	det := &detail{
		Workload: c.name, Seed: c.seed, Seconds: c.seconds, Traced: c.traced,
		Samples: len(c.latencies), Counts: c.counts, Hashes: c.hashes, Notes: c.notes,
		HostFactor: factor, Raw: raw, PerSecond: perSec,
	}
	return res, det, nil
}

// windowSpans returns the spans of the measured iterations (not set-up,
// not probes): the ones whose self time says where the window went.
func (c *runCtx) windowSpans() []span {
	var out []span
	remap := map[int]int{}
	for i, s := range c.tr.spans {
		if s.Op < setupReps || s.Op >= probeOp {
			continue
		}
		remap[i] = len(out)
		out = append(out, s)
	}
	for i := range out {
		if p, ok := remap[out[i].Parent]; ok {
			out[i].Parent = p
		} else {
			out[i].Parent = noSpan
		}
	}
	return out
}

// probeOp is the operation id of spans recorded by probes, above any
// iteration a ten-second window can reach.
const probeOp = 1 << 30

// selfCPU and selfRSS serve the workloads that do their work in-process.
func selfCPU() float64 { return cpuSeconds(syscall.RUSAGE_SELF) }

func selfRSS() float64 {
	v, err := hwmMiB(0)
	if err != nil {
		return 0
	}
	return v
}
