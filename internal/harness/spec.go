// Package harness is the parallel experiment-sweep engine: it expands a
// declarative sweep specification (algorithm set × graph family × modes ×
// wake schedules × async delay schedules × fault schedules ×
// repetitions) into deterministic trials, executes them on workers that
// claim trials in index order from one cursor, and streams the results
// through JSON/CSV/binary emitters and an online aggregator.
//
// Determinism: every trial's randomness derives from (Spec.Seed, rep), so
// the r-th repetition of every (algorithm, graph, mode, wake) cell sees
// the same coins and ID assignment — a paired-sample design — and the
// same spec produces byte-identical emitter output regardless of worker
// count. Results are streamed, not accumulated: workers discard the full
// sim.Result (statuses and other O(n) state) after
// reducing it to a small TrialResult record, and the worker that finished
// the trial emits it (Plan.Run). What the ordered tail retains is the emit
// reorder window (reorderRing) plus exact value→count accumulators
// (stats.IntSample) per cell, so its memory is flat in trial count while
// the group summaries keep their exact order statistics.
package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
)

// Spec declaratively describes a sweep. The zero values of optional
// fields select the documented defaults, so a minimal spec is just
// {Algos, Graphs}. Specs round-trip through JSON; see docs/SWEEP_SCHEMA.md.
type Spec struct {
	// Name labels the sweep in reports and emitted files.
	Name string `json:"name,omitempty"`
	// Algos lists internal/core registry names.
	Algos []string `json:"algos"`
	// Graphs lists graph.FromSpec family specs (e.g. "ring:64",
	// "random:128:640"). Each entry is instantiated once and shared by
	// all its trials.
	Graphs []string `json:"graphs"`
	// Trials is the number of repetitions per cell (default 1).
	Trials int `json:"trials,omitempty"`
	// Seed derives all per-trial randomness (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Modes lists execution models: "congest", "local", "async" (default
	// ["congest"]).
	Modes []string `json:"modes,omitempty"`
	// Wakes lists wake schedules: "sync", "random:R", "stagger:K",
	// "adversarial" (default ["sync"]).
	Wakes []string `json:"wakes,omitempty"`
	// Delays lists asynchronous message-delay schedules: "unit",
	// "random:B", "fifo:B" (default ["unit"]). The axis applies to
	// "async"-mode cells only; synchronous cells ignore it rather than
	// multiplying.
	Delays []string `json:"delays,omitempty"`
	// Faults lists fault-adversary schedules (sim.ParseFaults grammar:
	// "crash:0.2", "crashrec:0.1:32:keep+drop:0.05", ...; "" or "none"
	// is fault-free). The default is the single fault-free entry. Unlike
	// Delays, the axis multiplies every mode — faults compose with the
	// synchronous models too.
	Faults []string `json:"faults,omitempty"`
	// MaxRounds bounds each run (default 1 << 18).
	MaxRounds int `json:"max_rounds,omitempty"`
	// SmallIDs assigns permutation IDs 1..n instead of random 64-bit IDs
	// (required for "dfs", whose running time is exponential in the
	// minimum ID).
	SmallIDs bool `json:"small_ids,omitempty"`
	// DiameterEstimate grants D-dependent algorithms the cheap iterated
	// double-sweep lower bound (graph.DiameterEstimate, O(k·(n+m))) as
	// their known diameter instead of the exact all-pairs value (O(n·m)),
	// making D-knowledge cells feasible on million-node graphs. Opt-in:
	// the estimate equals the exact diameter on the shipped families, but
	// an under-estimate changes what the algorithm is told, so trials with
	// this flag are labeled by it in the emitted spec.
	DiameterEstimate bool `json:"diameter_estimate,omitempty"`
	// Opt tunes the algorithms (shared by every trial).
	Opt core.Options `json:"opt,omitempty"`
}

// LoadSpec reads a sweep spec: the literal "builtin:smoke" or a JSON
// file. It is the one spec reader of every front end, and it is strict:
// a key the schema does not have (a typo such as "trails") is an error
// that names it, never a silently defaulted axis, and so is anything after
// the spec's one JSON object.
func LoadSpec(arg string) (Spec, error) {
	if arg == "builtin:smoke" {
		return Smoke(), nil
	}
	f, err := os.Open(arg)
	if err != nil {
		return Spec{}, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		return Spec{}, fmt.Errorf("sweep spec %s: %w", arg, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Spec{}, fmt.Errorf("sweep spec %s: data after the spec object", arg)
	}
	return spec, nil
}

// Trial identifies one expanded (algorithm, graph, mode, wake, delay,
// fault) cell repetition. Index is the position in expansion order; Seed
// is the trial's deterministic root seed. Delay is the async delay-model
// spec ("" for synchronous cells); Fault is the fault-schedule spec (""
// for fault-free cells — "none" axis entries are canonicalized to "").
type Trial struct {
	Index int    `json:"trial"`
	Algo  string `json:"algo"`
	Graph string `json:"graph"`
	Mode  string `json:"mode"`
	Wake  string `json:"wake"`
	Delay string `json:"delay_model,omitempty"`
	Fault string `json:"fault_model,omitempty"`
	Rep   int    `json:"rep"`
	Seed  int64  `json:"seed"`

	graphIdx int
	// model is the cell's parsed execution model; its delay and fault
	// schedules are resolved once per axis entry at compile time and shared
	// by every repetition (both are immutable).
	model sim.ModelSpec
}

// TrialSeed derives the deterministic root seed of repetition rep.
// Repetitions share seeds across cells (paired-sample design).
func TrialSeed(base int64, rep int) int64 {
	return sim.NodeSeed(base, rep)
}

// graphSeed derives the instantiation seed of the i-th graph axis entry.
func graphSeed(base int64, i int) int64 {
	return sim.NodeSeed(base, -1000-i)
}

// maxSweepTrials bounds a sweep's expanded trial count; it is also the
// largest total a binary document header may declare.
const maxSweepTrials = 1 << 40

// Plan is a compiled Spec: the validated axes folded into one template
// per (graph, algorithm, mode, wake, delay, fault) cell, in expansion
// order, times Spec.Trials repetitions. Nothing in it is proportional to
// the trial count — trial i is computed on demand from cells[i/reps] —
// so compiling costs the cells and a Plan for 10^6 trials is as small as
// one for 10. Graphs are instantiated on first use and kept; so are the
// workers' states and the reorder window, which makes every Run after the
// first on the same Plan start warm (a fleet worker holds one Plan for all
// its leases). Runs on one Plan must not overlap.
type Plan struct {
	spec  Spec    // defaults resolved
	cells []Trial // templates: Index, Rep and Seed are per trial
	reps  int
	total int
	// hash is the spec hash every binary document of this sweep carries.
	hash uint64

	graphs []*graph.Graph // parallel to spec.Graphs; nil until first use
	states []workerState  // per worker, kept across Runs
	ring   reorderRing    // the tail's reorder window, kept across Runs
}

// Total is the number of trials the sweep expands to.
func (p *Plan) Total() int { return p.total }

// trial computes the i-th trial of the expansion.
func (p *Plan) trial(i int) Trial {
	t := p.cells[i/p.reps]
	t.Index = i
	t.Rep = i % p.reps
	t.Seed = TrialSeed(p.spec.Seed, t.Rep)
	return t
}

// graph returns the gi-th graph of the axis, instantiating it on first
// use (deterministic given Spec.Seed).
func (p *Plan) graph(gi int) (*graph.Graph, error) {
	if p.graphs[gi] == nil {
		g, err := graph.FromSpec(p.spec.Graphs[gi], graphSeed(p.spec.Seed, gi))
		if err != nil {
			return nil, err
		}
		p.graphs[gi] = g
	}
	return p.graphs[gi], nil
}

// Graphs instantiates whatever part of the graph axis is not built yet and
// returns it, parallel to Spec.Graphs.
func (p *Plan) Graphs() ([]*graph.Graph, error) {
	for gi := range p.graphs {
		if _, err := p.graph(gi); err != nil {
			return nil, err
		}
	}
	return p.graphs, nil
}

func parseMode(s string) (sim.Mode, error) {
	mode, err := sim.ParseMode(s)
	if err != nil {
		return 0, fmt.Errorf("harness: %w", err)
	}
	return mode, nil
}

// parseWake validates a wake-schedule spec. Schedules:
//
//	sync         all nodes wake in round 1 (the default)
//	random:R     each node wakes uniformly in rounds [1, R]
//	stagger:K    node i wakes in round 1 + (i mod K)
//	adversarial  one seeded random node wakes in round 1; every other
//	             node sleeps until a message arrives
func parseWake(s string) error {
	kind, arg, hasArg := strings.Cut(s, ":")
	switch kind {
	case "", "sync", "adversarial":
		if hasArg {
			return fmt.Errorf("harness: wake %q takes no parameter", s)
		}
		return nil
	case "random", "stagger":
		v, err := strconv.Atoi(arg)
		if err != nil || v < 1 {
			return fmt.Errorf("harness: wake %q needs a positive integer parameter", s)
		}
		return nil
	default:
		return fmt.Errorf("harness: unknown wake schedule %q", s)
	}
}

// wakeSchedule materializes a parsed wake spec for an n-node trial. The
// schedule derives from the trial seed, so it is deterministic and
// repetition-paired like every other source of randomness.
func wakeSchedule(spec string, n int, trialSeed int64) []int {
	kind, arg, _ := strings.Cut(spec, ":")
	switch kind {
	case "", "sync":
		return nil
	case "random":
		span, _ := strconv.Atoi(arg)
		rng := sim.NewRand(sim.NodeSeed(trialSeed, -3))
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + rng.Intn(span)
		}
		return w
	case "stagger":
		k, _ := strconv.Atoi(arg)
		w := make([]int, n)
		for i := range w {
			w[i] = 1 + i%k
		}
		return w
	case "adversarial":
		rng := sim.NewRand(sim.NodeSeed(trialSeed, -3))
		w := make([]int, n)
		for i := range w {
			w[i] = sim.WakeOnMessage
		}
		w[rng.Intn(n)] = 1
		return w
	default:
		panic("harness: unvalidated wake spec " + spec)
	}
}

// WakeSchedule validates and materializes a wake-schedule spec for an
// n-node run (the schedule derives from trialSeed, so every front end
// reproduces the batch path byte-for-byte). Every front end that takes a
// wake spec — a sweep trial, a uled request — materializes it here into
// core.RunOpts.Wake.
func WakeSchedule(spec string, n int, trialSeed int64) ([]int, error) {
	if err := parseWake(spec); err != nil {
		return nil, err
	}
	return wakeSchedule(spec, n, trialSeed), nil
}

// Validate compiles the spec — axis grammars parsed, algorithms resolved,
// graphs instantiated — and returns the expanded trial count. It is the
// pre-flight check of the serving layer: a spec that validates cannot
// fail Run with a spec error (trial-level model violations are still
// recorded per trial).
func (s Spec) Validate() (int, error) {
	p, err := s.Compile()
	if err != nil {
		return 0, err
	}
	if _, err := p.Graphs(); err != nil {
		return 0, err
	}
	return p.total, nil
}

// withDefaults resolves the zero values of optional fields.
func (s Spec) withDefaults() Spec {
	if s.Trials <= 0 {
		s.Trials = 1
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.MaxRounds <= 0 {
		s.MaxRounds = 1 << 18
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{"congest"}
	}
	if len(s.Wakes) == 0 {
		s.Wakes = []string{"sync"}
	}
	if len(s.Delays) == 0 {
		s.Delays = []string{"unit"}
	}
	return s
}

// cellDelays returns the delay-model axis of one mode cell: the spec's
// Delays for async cells, and the single empty entry (no delay model) for
// synchronous cells, which would otherwise be multiplied by an axis that
// cannot affect them.
func (s Spec) cellDelays(mode sim.Mode) []string {
	if mode == sim.ASYNC {
		return s.Delays
	}
	return []string{""}
}

// faultAxis returns the fault-schedule axis: the spec's Faults, or the
// single fault-free entry. The spec field itself is left alone (an
// omitted axis stays omitted in emitted spec JSON).
func (s Spec) faultAxis() []string {
	if len(s.Faults) == 0 {
		return []string{""}
	}
	return s.Faults
}

// Compile validates the spec — axis grammars parsed, algorithms
// resolved — and folds the cross product into a Plan. It instantiates no
// graph and its cost does not depend on Spec.Trials.
func (s Spec) Compile() (*Plan, error) {
	if len(s.Algos) == 0 {
		return nil, fmt.Errorf("harness: spec needs at least one algorithm")
	}
	if len(s.Graphs) == 0 {
		return nil, fmt.Errorf("harness: spec needs at least one graph")
	}
	s = s.withDefaults()
	for _, a := range s.Algos {
		if _, ok := core.Get(a); !ok {
			return nil, fmt.Errorf("harness: unknown algorithm %q", a)
		}
	}
	modes := make([]sim.Mode, len(s.Modes))
	for i, m := range s.Modes {
		mode, err := parseMode(m)
		if err != nil {
			return nil, err
		}
		modes[i] = mode
	}
	for _, w := range s.Wakes {
		if err := parseWake(w); err != nil {
			return nil, err
		}
	}
	// Parse each delay and fault axis entry once; the immutable parsed
	// values are shared by every trial of the entry.
	delays := make(map[string]sim.DelaySchedule, len(s.Delays))
	for _, d := range s.Delays {
		ds, err := sim.ParseDelay(d)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		delays[d] = ds
	}
	faults := make([]*sim.FaultSchedule, len(s.faultAxis()))
	for i, f := range s.faultAxis() {
		fs, err := sim.ParseFaults(f)
		if err != nil {
			return nil, fmt.Errorf("harness: %w", err)
		}
		faults[i] = fs
	}
	p := &Plan{spec: s, reps: s.Trials, graphs: make([]*graph.Graph, len(s.Graphs))}
	for gi, gs := range s.Graphs {
		for _, algo := range s.Algos {
			for mi, mode := range s.Modes {
				for _, wake := range s.Wakes {
					for _, delay := range s.cellDelays(modes[mi]) {
						for fi, fault := range s.faultAxis() {
							if faults[fi] == nil {
								fault = "" // canonicalize "none"
							}
							p.cells = append(p.cells, Trial{
								Algo:     algo,
								Graph:    gs,
								Mode:     strings.ToLower(mode),
								Wake:     wake,
								Delay:    delay,
								Fault:    fault,
								graphIdx: gi,
								model:    sim.ModelSpec{Mode: modes[mi], Delay: delays[delay], Faults: faults[fi]},
							})
						}
					}
				}
			}
		}
	}
	if p.reps > maxSweepTrials/len(p.cells) {
		return nil, fmt.Errorf("harness: spec expands to more than %d trials", maxSweepTrials)
	}
	p.total = len(p.cells) * p.reps
	specJSON, err := json.Marshal(p.spec)
	if err != nil {
		return nil, err
	}
	p.hash = sweepSpecHash(specJSON, p.total)
	return p, nil
}

// NumTrials returns the number of trials the spec expands to, without
// compiling it; a product beyond maxSweepTrials is reported as
// maxSweepTrials+1, so a cap check on the result cannot be overflowed.
func (s Spec) NumTrials() int {
	s = s.withDefaults()
	cells := 0
	for _, m := range s.Modes {
		if mode, err := sim.ParseMode(m); err == nil {
			cells += len(s.cellDelays(mode))
		} else {
			cells++ // invalid mode: count one cell; Compile will reject it
		}
	}
	n := 1
	for _, f := range []int{len(s.Algos), len(s.Graphs), len(s.Wakes), cells, len(s.faultAxis()), s.Trials} {
		if f == 0 {
			return 0
		}
		if n > maxSweepTrials/f {
			return maxSweepTrials + 1
		}
		n *= f
	}
	return n
}
