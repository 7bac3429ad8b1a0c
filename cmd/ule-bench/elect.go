package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/harness"
	"ule/internal/sim"
)

// cell is one (algorithm, graph, model, wake) combination of the elect
// workloads, bound to its graph and warm core.Prepared by setUp.
type cell struct {
	name     string
	algo     string
	graph    string
	model    string // sim.ParseModel grammar; "" is CONGEST
	wake     string // harness wake grammar; "" is simultaneous
	smallIDs bool

	m    sim.ModelSpec
	g    *graph.Graph
	prep *core.Prepared
	d    int // granted diameter, when the algorithm needs one

	buildAllocs uint64 // heap allocations of graph.FromSpec (traced pass)

	// Warm samples of the measured window.
	durs, perMsg, perTick []float64
}

func denseCells(sz sizes) []*cell {
	return []*cell{
		{name: cellNames[0], algo: "leastel", graph: fmt.Sprintf("torus:%dx%d", sz.TorusA, sz.TorusA)},
		{name: cellNames[1], algo: "flood", graph: fmt.Sprintf("random:%d:%d", sz.RandomN, 8*sz.RandomN)},
		{name: cellNames[2], algo: "kingdom", graph: fmt.Sprintf("torus:%dx%d", sz.TorusB, sz.TorusB)},
	}
}

func sparseCells(sz sizes) []*cell {
	return []*cell{
		{name: cellNames[3], algo: "leastel", graph: fmt.Sprintf("ring:%d", sz.RingN), model: "async+random:8", wake: "adversarial"},
		{name: cellNames[4], algo: "dfs", graph: fmt.Sprintf("torus:%dx%d", sz.TorusC, sz.TorusC), wake: "adversarial", smallIDs: true},
	}
}

// bind builds the cell's graph from graphSeed and a warm Prepared on it,
// and resolves the diameter a D-knowing algorithm is granted: the
// double-sweep estimate, or the exact one (what uled grants by default).
func (cl *cell) bind(c *runCtx, graphSeed int64, exactD bool, parent, op int) (err error) {
	if cl.m, err = sim.ParseModel(cl.model); err != nil {
		return err
	}
	var ms runtime.MemStats
	if c.traced {
		runtime.ReadMemStats(&ms)
		cl.buildAllocs = ms.Mallocs
	}
	id := c.tr.begin("graph.FromSpec", parent, op)
	cl.g, err = graph.FromSpec(cl.graph, graphSeed)
	c.tr.end(id)
	if err != nil {
		return err
	}
	if c.traced {
		runtime.ReadMemStats(&ms)
		cl.buildAllocs = ms.Mallocs - cl.buildAllocs
	}
	id = c.tr.begin("core.Prepare", parent, op)
	cl.prep, err = core.Prepare(cl.g, cl.algo)
	c.tr.end(id)
	if err != nil || !cl.prep.Spec().NeedsD {
		return err
	}
	if exactD {
		id = c.tr.begin("graph.DiameterExact", parent, op)
		cl.d = cl.g.DiameterExact()
	} else {
		id = c.tr.begin("graph.DiameterEstimate", parent, op)
		cl.d = cl.g.DiameterEstimate()
	}
	c.tr.end(id)
	return nil
}

// opts builds the RunOpts of one election exactly as the sweep harness
// builds a trial's (same ID and wake streams), so a cell here is a cell
// there.
func (cl *cell) opts(seed int64) (core.RunOpts, error) {
	n := cl.g.N()
	wake, err := harness.WakeSchedule(cl.wake, n, seed)
	if err != nil {
		return core.RunOpts{}, err
	}
	ro := core.RunOpts{Seed: seed, Model: cl.m, Wake: wake, D: cl.d}
	if cl.smallIDs {
		ro.IDs = sim.PermutationIDs(n, rand.New(rand.NewSource(sim.NodeSeed(seed, -2))))
	}
	return ro, nil
}

// electWorkload is elect-dense and elect-sparse: warm core.Prepared.RunInto
// rotations over the workload's cells.
type electWorkload struct {
	dense bool
	cells []*cell
	res   sim.Result

	coldNS       float64 // wall of the last set-up's cold rotation
	buildAllocs  uint64
	ran, correct int
}

func (w *electWorkload) setUp(c *runCtx, op int) error {
	if w.dense {
		w.cells = denseCells(c.sz)
	} else {
		w.cells = sparseCells(c.sz)
	}
	root := c.tr.begin("bench.build", noSpan, op)
	w.buildAllocs = 0
	for _, cl := range w.cells {
		if err := cl.bind(c, c.seed, false, root, op); err != nil {
			return err
		}
		w.buildAllocs += cl.buildAllocs
	}
	c.tr.end(root)

	// One cold rotation at the base seed. Its simulated counts are exact
	// functions of (seed, sizes): every set-up of every pass must see the
	// same ones, and they are what sim.deliveries / sim.ticks report.
	var msgs, rounds int64
	t0 := time.Now()
	for _, cl := range w.cells {
		r, err := w.elect(c, cl, c.seed, noSpan, op)
		if err != nil {
			return err
		}
		msgs += r.Messages
		rounds += int64(r.Rounds)
	}
	w.coldNS = float64(time.Since(t0))
	for key, v := range map[string]int64{"sim.deliveries": msgs, "sim.ticks": rounds} {
		if prev, seen := c.counts[key]; seen {
			c.check(prev == v, "%s: set-up %d counted %d, an earlier one %d", key, op, v, prev)
		}
		c.counts[key] = v
	}
	for _, cl := range w.cells {
		cl.durs, cl.perMsg, cl.perTick = nil, nil, nil
	}
	return nil
}

// elect runs one election on a warm cell and verifies it.
func (w *electWorkload) elect(c *runCtx, cl *cell, seed int64, parent, op int) (*sim.Result, error) {
	ro, err := cl.opts(seed)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	id := c.tr.begin("core.RunInto."+cl.name, parent, op)
	err = cl.prep.RunInto(ro, &w.res)
	c.tr.end(id)
	d := time.Since(t0)
	w.ran++
	if err != nil {
		c.check(false, "%s seed %d: %v", cl.name, seed, err)
		return &w.res, nil
	}
	ok := w.res.UniqueLeader()
	c.check(ok, "%s seed %d: no unique leader (%d leaders)", cl.name, seed, w.res.LeaderCount())
	if ok {
		w.correct++
	}
	cl.durs = append(cl.durs, float64(d))
	if w.res.Messages > 0 {
		cl.perMsg = append(cl.perMsg, float64(d)/float64(w.res.Messages))
	}
	if w.res.Rounds > 0 {
		cl.perTick = append(cl.perTick, float64(d)/float64(w.res.Rounds))
	}
	return &w.res, nil
}

func (w *electWorkload) tearDown(c *runCtx, stop bool) error {
	w.cells = nil
	return nil
}

// step is one rotation: every cell once, at seed+1+k. Its latency sample
// is the rotation's mean election latency: the cells differ by a factor of
// two, so a percentile over single elections would say which cell it
// landed on, not how fast the cells ran.
func (w *electWorkload) step(c *runCtx, _, k, op int) (int, error) {
	root := c.tr.begin("bench.rotation", noSpan, op)
	defer c.tr.end(root)
	t0 := time.Now()
	for _, cl := range w.cells {
		if _, err := w.elect(c, cl, c.seed+1+int64(k), root, op); err != nil {
			return 0, err
		}
	}
	c.latency(time.Since(t0) / time.Duration(len(w.cells)))
	return len(w.cells), nil
}

func (w *electWorkload) build(*runCtx) error     { return nil }
func (w *electWorkload) busyCPU(*runCtx) float64 { return selfCPU() }
func (w *electWorkload) peakRSS(*runCtx) float64 { return selfRSS() }
func (w *electWorkload) verify(*runCtx) error    { return nil }

func (w *electWorkload) probes(c *runCtx) error {
	c.layer["graph.build_ms"] = median(msPerOp(c.tr.spans, "graph.FromSpec"))
	c.layer["graph.diameter_ms"] = median(msPerOp(c.tr.spans, "graph.DiameterEstimate"))
	c.layer["graph.build_allocs"] = float64(w.buildAllocs)
	c.layer["sim.deliveries"] = float64(c.counts["sim.deliveries"])
	c.layer["sim.ticks"] = float64(c.counts["sim.ticks"])
	c.layer["core.correct_frac"] = float64(w.correct) / float64(w.ran)

	warm := 0.0
	for _, cl := range w.cells {
		warm += median(cl.durs)
		c.layer["core.run_ms."+cl.name] = median(cl.durs) / 1e6
	}
	if warm > 0 {
		c.layer["core.cold_over_warm"] = w.coldNS / warm
	}

	// sim.NewRunner on every graph of the workload.
	t0 := time.Now()
	for _, cl := range w.cells {
		id := c.tr.begin("sim.NewRunner", noSpan, probeOp)
		_, err := sim.NewRunner(cl.g)
		c.tr.end(id)
		if err != nil {
			return err
		}
	}
	c.layer["sim.prepare_ms"] = time.Since(t0).Seconds() * 1e3

	// The engine floor: a protocol with no logic of its own, driven
	// through the same Runner.RunInto, so what a cell costs beyond it is
	// core's protocol logic.
	if w.dense {
		floor, err := floorProbe(c, w.cells[0].g, allFlood{rounds: c.sz.FloodRounds}, nil)
		if err != nil {
			return err
		}
		c.layer["sim.floor_ns_per_delivery"] = floor.nsPerMsg
		for _, cl := range w.cells {
			c.layer["core.ns_per_delivery."+cl.name] = median(cl.perMsg) - floor.nsPerMsg
		}
	} else {
		g := w.cells[0].g // the ring
		wake := make([]int, g.N())
		for i := range wake {
			wake[i] = sim.WakeOnMessage
		}
		wake[0] = 1
		floor, err := floorProbe(c, g, tokenWave{}, wake)
		if err != nil {
			return err
		}
		c.layer["sim.floor_ns_per_tick"] = floor.nsPerTick
		for _, cl := range w.cells {
			c.layer["core.ns_per_tick."+cl.name] = median(cl.perTick) - floor.nsPerTick
		}
	}

	// The per-trial fixed cost: a whole warm election so small that ID
	// draw, RunOpts.config, process construction and runner reset are
	// most of it.
	tiny := &cell{algo: "flood", graph: "ring:16"}
	if err := tiny.bind(c, c.seed, false, noSpan, probeOp); err != nil {
		return err
	}
	var us []float64
	for i := 0; i < c.sz.ProbeReps; i++ {
		ro, err := tiny.opts(c.seed + int64(i))
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := tiny.prep.RunInto(ro, &w.res); err != nil {
			return err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	c.layer["core.config_us"] = median(us)
	return nil
}

// ---- engine-floor protocols ----

// bit is the one-bit payload of the floor protocols.
type bit struct{}

func (bit) Bits() int { return 1 }

// allFlood: every node sends one bit to every neighbour in each of
// `rounds` rounds, then halts. All the time is the engine's deliver/step
// loop.
type allFlood struct{ rounds int }

func (allFlood) Name() string                   { return "bench-all-flood" }
func (p allFlood) New(sim.NodeInfo) sim.Process { return allFloodProc(p) }

type allFloodProc struct{ rounds int }

func (allFloodProc) Start(*sim.Context) {}

func (p allFloodProc) Round(c *sim.Context, _ []sim.Message) {
	if c.Round() > p.rounds {
		c.Decide(sim.NonLeader)
		c.Halt()
		return
	}
	c.Broadcast(bit{})
}

// tokenWave: one token travels once around a ring whose nodes sleep until
// it arrives and halt once they pass it on — one delivery and one step per
// tick, so all the time is the engine's per-tick cost.
type tokenWave struct{}

func (tokenWave) Name() string                 { return "bench-token-wave" }
func (tokenWave) New(sim.NodeInfo) sim.Process { return tokenProc{} }

type tokenProc struct{}

func (tokenProc) Start(c *sim.Context) {
	if c.SpontaneousWake() {
		c.Send(0, bit{})
		c.Halt()
	}
}

func (tokenProc) Round(c *sim.Context, in []sim.Message) {
	if len(in) > 0 {
		c.Send(1-in[0].Port, bit{})
		c.Halt()
	}
}

type floorResult struct {
	nsPerMsg, nsPerTick float64
}

// floorProbe runs a floor protocol three times warm on g (after one cold
// run) and reports the median cost per delivery and per tick, plus the
// allocation of one warm run.
func floorProbe(c *runCtx, g *graph.Graph, p sim.Protocol, wake []int) (floorResult, error) {
	runner, err := sim.NewRunner(g)
	if err != nil {
		return floorResult{}, err
	}
	var res sim.Result
	var perMsg, perTick []float64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < 4; i++ {
		cfg := sim.Config{Seed: c.seed, Wake: wake}
		if i == 3 {
			runtime.ReadMemStats(&ms0)
		}
		t0 := time.Now()
		id := c.tr.begin("sim.RunInto.floor", noSpan, probeOp)
		err := runner.RunInto(cfg, p, &res)
		c.tr.end(id)
		d := float64(time.Since(t0))
		if err != nil {
			return floorResult{}, err
		}
		if i == 3 {
			runtime.ReadMemStats(&ms1)
		}
		if i == 0 || res.Messages == 0 || res.Rounds == 0 {
			continue
		}
		perMsg = append(perMsg, d/float64(res.Messages))
		perTick = append(perTick, d/float64(res.Rounds))
	}
	c.layer["sim.allocs_per_run"] = float64(ms1.Mallocs - ms0.Mallocs)
	c.layer["sim.bytes_per_run"] = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	return floorResult{median(perMsg), median(perTick)}, nil
}
