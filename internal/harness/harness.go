package harness

import (
	"fmt"
	"time"

	"ule/internal/core"
	"ule/internal/graph"
	"ule/internal/sim"
	"ule/internal/stats"
)

// TrialResult is the streamed per-trial record: the trial identity plus
// the scalar measurements reduced from the full sim.Result (which is
// discarded immediately — statuses, per-edge maps and other O(n) state
// never accumulate across a sweep).
type TrialResult struct {
	Trial
	// N, M describe the instantiated graph.
	N int `json:"n"`
	M int `json:"m"`
	// Outcome holds the measurements (its fields are inlined in the JSON
	// record).
	Outcome
	// Err records a per-trial model violation ("" = clean run). The sweep
	// continues past trial errors; Report.Errors counts them.
	Err string `json:"err,omitempty"`
}

// GroupStats aggregates every repetition of one (algo, graph, mode, wake,
// delay, fault) cell. Delay is empty for synchronous cells; Fault is
// empty for fault-free cells.
type GroupStats struct {
	Algo   string `json:"algo"`
	Graph  string `json:"graph"`
	Mode   string `json:"mode"`
	Wake   string `json:"wake"`
	Delay  string `json:"delay_model,omitempty"`
	Fault  string `json:"fault_model,omitempty"`
	N      int    `json:"n"`
	M      int    `json:"m"`
	D      int    `json:"d,omitempty"`
	Trials int    `json:"trials"`
	Errors int    `json:"errors,omitempty"`
	// Messages/Rounds summarize clean trials; Success is the fraction of
	// clean trials electing a unique leader.
	Messages stats.Summary `json:"messages"`
	Rounds   stats.Summary `json:"rounds"` // LastActive per trial
	Bits     stats.Summary `json:"bits"`
	Success  float64       `json:"success"`
	// Survival is the fraction of clean trials satisfying the
	// fault-tolerant success condition (unique live leader); only
	// emitted for fault cells.
	Survival float64 `json:"survival,omitempty"`
}

// Report is the end-of-sweep synthesis returned by Run and appended by the
// JSON emitter.
type Report struct {
	Spec   Spec         `json:"spec"`
	Total  int          `json:"total_trials"`
	Errors int          `json:"errors,omitempty"`
	Groups []GroupStats `json:"groups"`

	// Elapsed and Workers describe the execution, not the experiment;
	// they are excluded from emitter output to keep it deterministic.
	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`

	// plan is the compiled sweep the report came from; it owns the graphs.
	plan *Plan
}

// Graphs returns the instantiated graph axis, parallel to Spec.Graphs.
// Callers needing per-graph normalizations (e.g. rounds/D from the
// memoized exact diameter) use these instances instead of rebuilding.
// The run's own graphs are the Plan's and come back as they are; an entry
// no trial of it needed (a ranged or resumed Run, a merge) is instantiated
// here, on first call. The result is nil for a Report no Plan produced,
// and if such a late graph does not build.
func (r *Report) Graphs() []*graph.Graph {
	if r.plan == nil {
		return nil
	}
	graphs, _ := r.plan.Graphs()
	return graphs
}

// Group returns the aggregate for one cell, or nil if absent. The
// optional trailing arguments select a delay model (rest[0]) and a fault
// model (rest[1]); without them the first cell matching
// (algo, graph, mode, wake) is returned, which is unique for synchronous
// fault-free cells and for sweeps with a single delay/fault model.
func (r *Report) Group(algo, graphSpec, mode, wake string, rest ...string) *GroupStats {
	for i := range r.Groups {
		g := &r.Groups[i]
		if g.Algo == algo && g.Graph == graphSpec && g.Mode == mode && g.Wake == wake &&
			(len(rest) < 1 || g.Delay == rest[0]) &&
			(len(rest) < 2 || g.Fault == rest[1]) {
			return g
		}
	}
	return nil
}

// TrialRange selects a contiguous slice [Start, Start+Count) of a
// sweep's trial index space. Workers of a distributed run (internal/fleet)
// each execute one range and write one shard file.
type TrialRange struct {
	Start int
	Count int
}

// RunConfig tunes sweep execution (all fields optional).
type RunConfig struct {
	// Workers is the pool size (default GOMAXPROCS).
	Workers int
	// Emitters receive every trial record in trial-index order, then the
	// final report.
	Emitters []Emitter
	// Progress, when set, is called after every completed trial with the
	// completed and total counts (from the single consumer goroutine).
	// Both counts are range-local when Range is set.
	Progress func(done, total int)
	// Resume, when set, continues an interrupted binary sweep instead of
	// starting over: the compiled spec must hash-match the checkpoint's
	// header, the completed trial prefix is replayed from the checkpoint
	// file into the aggregator (not re-run and not re-emitted), and only
	// the remaining suffix executes. Pair it with the emitter returned by
	// ResumeBinary so the binary stream continues where it stopped; the
	// final document is byte-identical to an uninterrupted run. The
	// checkpoint's range must match Range (a full-document checkpoint
	// pairs with Range == nil).
	Resume *SweepCheckpoint
	// Range, when set, restricts execution to the trials in
	// [Start, Start+Count); emitted records keep their absolute trial
	// indices. Emitters still receive the full spec and total in Begin,
	// so a shard emitter can bind the shard to the whole sweep.
	Range *TrialRange
}

// groupAcc accumulates one cell online. The three metric accumulators are
// exact value→count multisets (stats.IntSample), so consumer memory is
// bounded by the number of distinct observed values per cell — flat in
// trial count — while the end-of-sweep summaries stay bit-identical to
// the old O(trials) float-slice path.
type groupAcc struct {
	key              [6]string
	n, m, d          int
	trials, errors   int
	unique           int
	liveUnique       int
	msgs, rounds, bs stats.IntSample
}

// add folds one emitted record into the cell accumulators.
func (acc *groupAcc) add(next *TrialResult) {
	acc.trials++
	if next.Err != "" {
		acc.errors++
		return
	}
	acc.msgs.Add(next.Messages)
	acc.rounds.Add(int64(next.LastActive))
	acc.bs.Add(next.Bits)
	if next.Unique {
		acc.unique++
	}
	if next.LiveUnique {
		acc.liveUnique++
	}
}

// sweepAgg is the online aggregator shared by Run and MergeShards: it
// folds trial records (fed in trial-index order) into per-cell
// accumulators and builds the report groups, so a merged document's
// groups are bit-identical to a single-process run's.
type sweepAgg struct {
	groups []*groupAcc
	byKey  map[[6]string]*groupAcc
}

func newSweepAgg() *sweepAgg {
	return &sweepAgg{byKey: make(map[[6]string]*groupAcc)}
}

func (a *sweepAgg) add(next *TrialResult) {
	key := [6]string{next.Algo, next.Graph, next.Mode, next.Wake, next.Delay, next.Fault}
	acc, ok := a.byKey[key]
	if !ok {
		acc = &groupAcc{key: key, n: next.N, m: next.M, d: next.D}
		a.byKey[key] = acc
		a.groups = append(a.groups, acc)
	}
	acc.add(next)
}

// finish appends the group summaries (in first-appearance order, which is
// trial-index order) to rep and accumulates the error total.
func (a *sweepAgg) finish(rep *Report) {
	for _, acc := range a.groups {
		gs := GroupStats{
			Algo: acc.key[0], Graph: acc.key[1], Mode: acc.key[2], Wake: acc.key[3],
			Delay: acc.key[4], Fault: acc.key[5],
			N: acc.n, M: acc.m, D: acc.d,
			Trials:   acc.trials,
			Errors:   acc.errors,
			Messages: acc.msgs.Summary(),
			Rounds:   acc.rounds.Summary(),
			Bits:     acc.bs.Summary(),
		}
		if clean := acc.trials - acc.errors; clean > 0 {
			gs.Success = float64(acc.unique) / float64(clean)
			if gs.Fault != "" {
				gs.Survival = float64(acc.liveUnique) / float64(clean)
			}
		}
		rep.Errors += acc.errors
		rep.Groups = append(rep.Groups, gs)
	}
}

// Run compiles the spec and executes it (Plan.Run). Per-trial model
// violations are recorded in the affected TrialResult and counted in the
// report; Run itself fails only on invalid specs or emitter errors.
func Run(spec Spec, rc RunConfig) (*Report, error) {
	p, err := spec.Compile()
	if err != nil {
		return nil, err
	}
	return p.Run(rc)
}

// Run executes the sweep — or rc.Range's slice of it — on the
// work-stealing pool, streaming records to the emitters and the online
// aggregator. It instantiates the graphs its trials touch before any
// emitter output, so a graph spec that does not build is a spec error
// like any other; the graphs and the workers' Prepared caches stay with
// the Plan for the next Run.
func (p *Plan) Run(rc RunConfig) (*Report, error) {
	workers := rc.Workers
	if workers <= 0 {
		workers = defaultWorkers()
	}
	total := p.total
	shards := trialShards(p.spec.Shards, workers, rc.Range != nil)

	// The executed range: the whole sweep, or rc.Range's slice of it.
	rangeStart, rangeCount := 0, total
	if rc.Range != nil {
		rangeStart, rangeCount = rc.Range.Start, rc.Range.Count
		if rangeStart < 0 || rangeCount <= 0 || rangeStart+rangeCount > total {
			return nil, fmt.Errorf("harness: trial range [%d,%d) outside sweep of %d trials", rangeStart, rangeStart+rangeCount, total)
		}
	}

	agg := newSweepAgg()

	// A resumed sweep re-aggregates the durable prefix from the
	// checkpoint file; those trials are neither re-run nor re-emitted.
	completed := 0
	if rc.Resume != nil {
		if err := rc.Resume.check(p.hash); err != nil {
			return nil, err
		}
		if rc.Resume.Start != rangeStart || rc.Resume.Count != rangeCount {
			return nil, fmt.Errorf("harness: resume checkpoint covers [%d,%d), run range is [%d,%d)",
				rc.Resume.Start, rc.Resume.Start+rc.Resume.Count, rangeStart, rangeStart+rangeCount)
		}
		completed = rc.Resume.Completed
	}
	// Cells are graph-major, so the n trials left to run, from first on,
	// touch one contiguous stretch of the graph axis.
	first, n := rangeStart+completed, rangeCount-completed
	if n > 0 {
		for gi := p.cells[first/p.reps].graphIdx; gi <= p.cells[(first+n-1)/p.reps].graphIdx; gi++ {
			if _, err := p.graph(gi); err != nil {
				return nil, err
			}
		}
	}
	for _, em := range rc.Emitters {
		if err := em.Begin(p.spec, total); err != nil {
			return nil, err
		}
	}
	if rc.Resume != nil {
		if err := rc.Resume.replay(func(tr TrialResult) error {
			agg.add(&tr)
			return nil
		}); err != nil {
			return nil, fmt.Errorf("harness: resume replay: %w", err)
		}
	}

	start := time.Now()
	for len(p.states) < workers {
		p.states = append(p.states, workerState{cache: preparedCache{}})
	}
	results := make(chan TrialResult, 2*workers)
	poolDone := make(chan struct{})
	go func() {
		defer close(results)
		runPool(n, workers, func(i, w int) {
			select {
			case <-poolDone:
				return // consumer bailed on an emitter error
			default:
			}
			results <- p.runTrial(p.trial(first+i), shards, &p.states[w])
		})
	}()

	// Single consumer: reorder to trial-index order, emit, aggregate.
	// The reorder window is a power-of-two ring of small TrialResult
	// records (see reorderRing).
	var (
		ring    = newReorderRing(2*workers, first)
		done    = completed
		emitErr error
	)
	for tr := range results {
		done++
		if rc.Progress != nil {
			rc.Progress(done, rangeCount)
		}
		ring.put(tr)
		for {
			next, ok := ring.take()
			if !ok {
				break
			}
			if emitErr == nil {
				for _, em := range rc.Emitters {
					if err := em.Trial(next); err != nil {
						emitErr = err
						close(poolDone)
						break
					}
				}
			}
			agg.add(&next)
		}
	}
	if emitErr != nil {
		return nil, emitErr
	}

	rep := &Report{
		Spec:    p.spec,
		Total:   total,
		Elapsed: time.Since(start),
		Workers: workers,
		plan:    p,
	}
	// The consumer aggregates in trial-index order, so groups are already
	// in deterministic expansion (graph-major) order.
	agg.finish(rep)
	for _, em := range rc.Emitters {
		if err := em.End(rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// trialShards resolves the spec's shard count for one sweep execution.
// Several workers, or a range (one process's slice of a fleet's sweep),
// already fill the cores with whole trials: an unset count then means
// one shard, not the engine's own multi-core default. Anything the spec
// did set is passed through.
func trialShards(specShards, workers int, ranged bool) int {
	if specShards == 0 && (workers > 1 || ranged) {
		return 1
	}
	return specShards
}

// preparedCache holds one worker's (graph, algorithm) → Prepared
// bindings. It is per-worker state, so no locking; the Prepared inside
// reuses engine buffers across every trial the worker runs in that cell,
// in this Run and in later ones on the same Plan.
type preparedCache map[preparedKey]*core.Prepared

type preparedKey struct {
	graphIdx int
	algo     string
}

// workerState is one pool worker's private trial machinery: the Prepared
// cache plus a single sim.Result recycled across every trial the worker
// runs — each trial is reduced to a TrialResult before the next one
// overwrites it, so the O(n) statuses and instrument maps are allocated
// once per worker rather than once per trial.
type workerState struct {
	cache preparedCache
	res   sim.Result
}

// runTrial executes one trial through the worker's Prepared cache — the
// shared election recipe, Election.RunOpts and Reduce, on the worker's
// recycled Result — and reduces it to the streamed record. The record
// carries the granted diameter even when the run fails, so it shows
// exactly what the algorithm was told.
func (p *Plan) runTrial(t Trial, shards int, ws *workerState) TrialResult {
	g := p.graphs[t.graphIdx] // instantiated by Run before the pool started
	tr := TrialResult{Trial: t, N: g.N(), M: g.M()}
	key := preparedKey{t.graphIdx, t.Algo}
	prep, ok := ws.cache[key]
	if !ok {
		var err error
		prep, err = core.Prepare(g, t.Algo)
		if err != nil {
			tr.Err = err.Error()
			return tr
		}
		ws.cache[key] = prep
	}
	ro, err := Election{
		Seed:             t.Seed,
		Model:            t.model,
		Wake:             t.Wake,
		SmallIDs:         p.spec.SmallIDs,
		DiameterEstimate: p.spec.DiameterEstimate,
		MaxRounds:        p.spec.MaxRounds,
		Shards:           shards,
		Opt:              p.spec.Opt,
	}.RunOpts(prep)
	if err == nil {
		tr.D = ro.D
		err = prep.RunInto(ro, &ws.res)
	}
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	tr.Outcome = Reduce(ro, &ws.res)
	return tr
}

// Smoke is a small built-in sweep used by `make sweep-smoke` and the CI
// pipeline: every registered algorithm on two graph families, in the
// synchronous model and in the asynchronous model under all three
// built-in delay schedules.
func Smoke() Spec {
	return Spec{
		Name:     "smoke",
		Algos:    core.Names(),
		Graphs:   []string{"ring:16", "random:24:60"},
		Trials:   2,
		Seed:     1,
		Modes:    []string{"congest", "async"},
		Delays:   []string{"unit", "random:4", "fifo:4"},
		SmallIDs: true,
	}
}
